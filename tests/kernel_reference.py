"""Python references of the C kernels in ``src/lipshift/_sweep.c``.

Each function here does one kernel's float operations in the same order,
so it gives the kernel's bits; the tests compare the two bit for bit.
They are the Python implementations that the kernels replaced in the
library:

- `cut`, `stack_roots` and `clip_roots`: the two passes of the Lipschitz
  LSE (``cut``, ``lse_roots``, ``lse_clip``), on the two knot stacks that
  ``lipshift.lipfit``'s docstring describes, each knot one complex number
  p + q i, so that a move between the stacks is one complex add (which
  rounds its two parts as two float adds would);
- `pava`: pool adjacent violators (``iso_fit``);
- `search`, `count_closer` and `kth_distance`: ``EmpiricalSpread.at``
  (``emp_spread``, ``count_closer``, ``kth_distance``) in Python floats;
- `numpy_rounds`, `libm_cbrt` and `next_float`: the rounds of
  ``SpreadFunction.at`` (``tn_solve``, ``tn_round``, ``tn_mass``,
  ``next_float``) in numpy, one `interval_mass` call per round, the secant
  steered by libm's cube root as in C (or by any other);
- `unit_cdf`, with `power_cdf`, `pow_cdf`, `example3_cdf` and
  `tabulated_cdf`: the unit CDFs of the uniform, power, example3, tabulated
  and mixture designs in numpy, the node kinds of ``unit_cdf`` in C
  (``tree_cdf``, ``tab_at``), which also evaluates them in ``tn_mass``, so
  that every t_n solve is one kernel call; a power design whose exponent is
  no integer up to ``densities._POWER_MAX`` is Python's ``math.pow``, which
  gives libm's ``pow``'s bits as the C tree's pow node does (numpy's
  ``np.power`` differs from it in the last bit at many points);
- `tabulated_ppf`: the inverse CDF of ``densities.tabulated``
  (``tab_ppf``) in numpy, on the design's table of
  ``densities._tabulated_table``.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import chain, count

import numpy as np

from lipshift.densities import _POWER_MAX, _tabulated_table, interval_mass


def cut(stack, sign, a, b):
    """Index hi of the deepest knot to move: a knot moves while sign times
    its value is > 0.  A galloping search from the top, ``cut`` in C."""
    hi = len(stack) - 1
    step = 1
    lo = hi - 1
    while lo >= 0 and sign * ((z := stack[lo]).imag + a * z.real + b) > 0.0:
        hi = lo
        step += step
        lo = hi - step
    if lo < 0:
        lo = -1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if sign * ((z := stack[mid]).imag + a * z.real + b) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def stack_roots(y, c, u):
    """Roots r_0..r_{k-1} of V_0'..V_{k-1}' by the two-stack sweep,
    ``lse_roots`` in C, as a float array; y, c = 2 w and u are float64
    arrays, read in place."""
    y0 = float(y[0])
    left, right = [complex(y0, 0.0)], []  # V_0' = c_0 (z - y_0): one knot, value 0
    a = float(c[0])
    ol = orr = 0.0
    bl = br = -a * y0
    roots = np.empty(len(y))
    out = memoryview(roots)
    # One trailing step with zero gap and weight past the last point, so that
    # each iteration starts with the root of V_i.
    tail = (0.0,)
    for i, ui, ci, yi in zip(count(), chain(memoryview(u), tail), chain(memoryview(c)[1:], tail),
                             chain(memoryview(y)[1:], tail)):
        vl = (zl := left[-1]).imag + a * zl.real + bl if left else -1.0
        vr = (zr := right[-1]).imag + a * zr.real + br if right else 1.0
        if vl > 0.0 or vr < 0.0:
            # the root passed the knots with V' > 0 atop the left stack, or
            # those with V' < 0 atop the right one: onto the other stack
            src, dst, sign, o, b, o2, b2 = ((left, right, 1.0, ol, bl, orr, br) if vl > 0.0
                                            else (right, left, -1.0, orr, br, ol, bl))
            hi = cut(src, sign, a, b)
            d = o - o2
            shift = complex(d, b - b2 - a * d)
            dst += [z + shift for z in reversed(src[hi:])]
            del src[hi:]
            vl = (zl := left[-1]).imag + a * zl.real + bl if left else -1.0
            vr = (zr := right[-1]).imag + a * zr.real + br if right else 1.0
        if vl == 0.0:  # the root is a knot; the clip below replaces it
            m = left.pop().real + ol
        elif vr == 0.0:
            m = right.pop().real + orr
        elif not right:
            m = zl.real + ol - vl / a
        elif not left:
            m = zr.real + orr - vr / a
        else:
            xl = zl.real + ol
            xr = zr.real + orr
            m = xl - vl * (xr - xl) / (vr - vl)
        out[i] = m
        # clip: zero-valued knots at m on both stacks, then shift the stacks apart
        p = m - ol
        left.append(complex(p, -(a * p + bl)))
        p = m - orr
        right.append(complex(p, -(a * p + br)))
        ol -= ui
        orr += ui
        # add c_i (z - y_i)
        a += ci
        bl += ci * (ol - yi)
        br += ci * (orr - yi)
    return roots


def clip_roots(f, u):
    """The backward pass, ``lse_clip`` in C, in place on the roots f: the
    last value is the last root, and each earlier root r_i is clipped to
    [f_{i+1} - u_i, f_{i+1} + u_i].  Bit for bit min(max(r_i, f_{i+1} -
    u_i), f_{i+1} + u_i) for gaps u_i >= 0, signed zeros included."""
    out = memoryview(f)
    g = out[-1]
    for i, ui in zip(range(len(out) - 2, -1, -1), reversed(memoryview(u))):
        r = out[i]
        lo = g - ui
        if lo > r:
            g = lo
        else:
            hi = g + ui
            g = hi if hi < r else r
        out[i] = g
    return f


def pava(y):
    """Pool adjacent violators on the float array y, ``iso_fit`` in C."""
    y = y.tolist()
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
    out = np.empty(len(y))
    pos = 0
    for t, c in zip(totals, counts):
        out[pos:pos + c] = t / c
        pos += c
    return out


def search(e, x):
    """``EmpiricalSpread.at`` of e for a float array x, in Python floats
    point by point, as an array shaped like x: ``emp_spread`` line for
    line."""
    p, n = memoryview(e.points), e.n
    log_n = float(np.log(n))  # the kernel's, whose last bit libm's log need not share
    out = []
    for v in x.ravel().tolist():
        s = bisect_left(p, v)
        lo, hi = 1, n + 1  # k* in [1, n + 1]; n + 1: r_k < sqrt(log n / k) for all k
        while lo < hi:
            k = (lo + hi) // 2
            if k > n or count_closer(p, s, v, math.sqrt(log_n / k)) < k:
                hi = k
            else:
                lo = k + 1
        r = kth_distance(p, s, v, hi) if hi <= n else math.inf
        cap = math.sqrt(log_n / (hi - 1)) if hi >= 2 else math.inf
        out.append(r if r < cap else cap)
    return np.array(out, float).reshape(x.shape)


def count_closer(p, s, x, phi):
    """#{i : x - p_i < phi} over the sorted points p below index s plus
    #{i : p_i - x < phi} over the rest, ``count_closer`` in C: fl(p_i - x)
    = -fl(x - p_i), so the first test is p_i - x > -phi, and each run is a
    bisection on p_i - x."""
    d = lambda v: v - x  # noqa: E731
    return bisect_left(p, phi, s, len(p), key=d) - bisect_right(p, -phi, 0, s, key=d)


def kth_distance(p, s, x, k):
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


def next_float(x, step):
    """np.nextafter(x, inf) (step = 1) for a float64 array x >= 0, +0.0 but
    not -0.0, or np.nextafter(x, -inf) (step = -1) for x > 0: there it is
    the neighbouring integer of x's bit pattern, ``next_float`` in C."""
    return (x.view(np.int64) + step).view(np.float64)


def libm_cbrt(v):
    """libm's cube root (math.cbrt) of each entry of the float array v, the
    kernel's ``cbrt``: its last bits differ from np.cbrt's at many points."""
    return np.array([math.cbrt(u) for u in v.tolist()], float)


def numpy_rounds(s, x, cbrt=libm_cbrt):
    """``s._at_points(x)`` for a `SpreadFunction` s in numpy, the rounds of
    ``tn_solve``: each round makes one `interval_mass` call for every point
    still solving, and steers the secant by the cube root cbrt of g."""
    d, thr = s.distribution, s.threshold
    level = np.cbrt(thr)  # the secant's target on g^(1/3)
    out = np.empty_like(x)
    todo = np.arange(x.size)  # the points still solving; the arrays below follow it
    lo = np.full_like(x, np.sqrt(thr) * (1.0 - 1e-9))
    hi = np.ones_like(x)
    est = np.full_like(x, np.cbrt(0.5 * thr))  # the root for p = 1
    half = 0.5 * est
    before = np.full_like(x, np.inf)  # bracket width at the start of the last round
    for _ in range(200):
        t = 0.5 * (lo + hi)
        done = (t == lo) | (t == hi)
        if done.any():
            out[todo[done]] = t[done]
            keep = ~done
            todo, lo, hi, est, half, before = (
                v[keep] for v in (todo, lo, hi, est, half, before))
        if todo.size == 0:
            break
        inner = next_float(lo, 1), next_float(hi, -1)
        a = np.minimum(np.maximum(est - half, inner[0]), inner[1])
        b = np.maximum(est + half, next_float(est, 1))
        b = np.minimum(np.maximum(b, inner[0]), inner[1])
        pair, xi = np.concatenate([a, b]), x[np.concatenate([todo, todo])]
        g = pair**2 * interval_mass(d, xi - pair, xi + pair)
        ga, gb = g[: todo.size], g[todo.size:]
        a_below, b_below = ga < thr, gb < thr
        lo2 = np.where(a_below, np.where(b_below, b, a), lo)
        hi2 = np.where(a_below, np.where(b_below, hi, b), a)
        ca, cb = cbrt(ga), cbrt(gb)
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


def unit_cdf(d, x):
    """The unit CDF of design d at the float array x in numpy, by d's kind:
    the bodies of the C tree's nodes, math.pow's for a power design whose
    exponent is no integer up to `_POWER_MAX`."""
    if d.kind == "uniform":
        return x
    if d.kind == "power":
        k = d.params["alpha"] + 1.0
        return power_cdf(k, x) if k.is_integer() and k <= _POWER_MAX else pow_cdf(k, x)
    if d.kind == "example3":
        return example3_cdf(d.params["phi"], x)
    if d.kind == "tabulated":
        return tabulated_cdf(_tabulated_table(d.params["grid"], d.params["values"]), x)
    if d.kind == "mixture":
        w, p, q = d.params["weight_p"], d.params["p"], d.params["q"]
        return w * unit_cdf(p, x) + (1.0 - w) * unit_cdf(q, x)
    raise ValueError(f"no reference unit CDF for kind {d.kind!r}")


def power_cdf(k, x):
    """x^k for an integer k >= 1 at the float array x as the product
    ((x x) x) ... x of k factors, left to right, a POWER node of
    ``tree_cdf`` in C."""
    y = x
    for _ in range(int(k) - 1):
        y = y * x
    return y


def pow_cdf(e, x):
    """math.pow(v, e) for each v of the float array x, which holds points
    in [0, 1], -0.0 or NaN, as an array shaped like x: a POW node of
    ``tree_cdf`` in C."""
    return np.array([math.pow(v, e) for v in x.ravel().tolist()], float).reshape(x.shape)


def example3_cdf(phi, x):
    """The unit CDF of ``densities.example3`` with level phi at the float
    array x: the left ramp, the level and the right ramp, an EXAMPLE3 node
    of ``tree_cdf`` in C."""
    ramp = 16.0 * (1.0 - phi)
    f14 = phi / 4.0 + (1.0 - phi) / 2.0
    f34 = f14 + phi / 2.0
    left = phi * x + ramp * (x / 4.0 - x**2 / 2.0)
    mid = f14 + phi * (x - 0.25)
    s = x - 0.75
    right = f34 + phi * s + (ramp / 2.0) * s**2
    return np.where(x <= 0.25, left, np.where(x <= 0.75, mid, right))


def tabulated_cdf(table, x):
    """The unit CDF of the tabulated design with table (grid, values, node
    masses, slopes) at the float array x, ``tab_at`` in C: x clamped to the
    support, then the integral from the nearer node of its segment."""
    g, v, cum, slope = table
    x = np.minimum(g[-1], np.maximum(g[0], x))
    i = np.minimum(np.maximum(np.searchsorted(g, x, side="right") - 1, 0), g.size - 2)
    dx, r = x - g[i], g[i + 1] - x
    # from the left node alone the terms cancel near a right node of
    # zero density, and the sum is not monotone in its last bits there
    return np.where(r < dx, cum[i + 1] - (v[i + 1] * r - 0.5 * slope[i] * r**2),
                    cum[i] + v[i] * dx + 0.5 * slope[i] * dx**2)


def tabulated_ppf(table, u):
    """The inverse CDF of the tabulated design with table (grid, values, node
    masses, slopes) at the float array u of levels in [0, 1], ``tab_ppf`` in
    C."""
    g, v, cum, slope = table
    i = np.clip(np.searchsorted(cum, u) - 1, 0, g.size - 2)
    du = np.maximum(u - cum[i], 0.0)
    den = v[i] + np.sqrt(np.maximum(v[i] ** 2 + 2.0 * slope[i] * du, 0.0))
    dx = np.divide(2.0 * du, den, out=np.zeros_like(du), where=den > 0.0)
    return np.minimum(g[i] + dx, g[i + 1])
