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

The knots live on two stacks, lists whose tops are the knots next to the
root: the left stack holds the knots with V' < 0 in increasing position, the
right stack those with V' > 0 in decreasing position.  A knot is stored as
one complex number z = p + q i, with position p + o and value q + a p + b,
where o and b belong to its stack and the slope accumulator a is shared.  So
clipping and adding touch no stored knot: clipping moves o by -u on the
left and +u on the right, and adding 2 w (z - y) adds 2 w to a and 2 w (o -
y) to each b.  Both stacks can share a because every knot's value has
gained the same sum of 2 w, and for the same reason a is also the slope of
V' beyond the outermost knots.  When the root moves, the knots it passes
leave the top of one stack for the other; in the new stack's coordinates
(p, q) shifts by a constant, so one galloping search, `_cut`, finds them on
either stack, and one reversed slice and one complex add per knot move them
(a complex add rounds its two parts as two float adds would).  A fit costs
O(n) steps plus one move per knot crossing the root.  The sweep reads y, 2 w
and the gaps from their arrays and writes the roots into one float buffer,
which the backward pass clips in place into the fitted values.

Both passes run in C (``lse_roots`` and ``lse_clip`` in ``_sweep.c``,
loaded with ctypes at import), written line for line like the Python ones,
with the same float operations in the same order, so the same bits, 30-70x
faster at n = 2^14 to 2^20.  The C keeps both stacks in one buffer of 2n +
1 knots, the left growing up from its start and the right down from its
end.  The kernel is built once per source and flags, with the system C
compiler ``cc``, into a file next to the source, and each import that
loads it removes the builds of other sources there.  Where it cannot be
built or loaded, the import warns once and the Python passes run; the tests
hold them as the kernel's reference.  At its peak a fit holds
about 64 bytes per point, in the C sweep: 40 (16-byte knots and the roots)
beside the inputs.  The KKT residual builds its multipliers and masks in
place, about 26; the Python sweep holds about 115 (2n knots at 40 bytes
each, a complex object and its list slot).

The same file houses the isotonic LSE (pool adjacent violators) and a
fixed-bandwidth triangular-kernel smoother.  PAVA runs in the same C
library (``iso_fit``), with the blocks as (total, count) pairs in numpy
buffers, and in Python (``_pava``) where no kernel loaded; so does the
empirical spread of ``spread`` (``emp_spread``), which reads ``_KERNEL``
here when it is called.  The losses that judge all of them, and the name ->
estimator table that runs them, are in ``harness``.
"""

from __future__ import annotations

import ctypes
import os
import warnings
import zlib
from dataclasses import dataclass
from itertools import chain, count

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
    budget: float
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


def _cut(stack, sign, a, b):
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


def _stack_roots(y, c, u):
    """Roots r_0..r_{k-1} of V_0'..V_{k-1}' by the two-stack sweep of the
    module docstring, ``lse_roots`` in C, as a float array; y, c = 2 w and
    u are float64 arrays, read in place."""
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
            hi = _cut(src, sign, a, b)
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


def _clip_roots(f, u):
    """The backward pass, in place on the roots f: the last value is the
    last root, and each earlier root r_i is clipped to [f_{i+1} - u_i,
    f_{i+1} + u_i].  Bit for bit min(max(r_i, f_{i+1} - u_i), f_{i+1} + u_i)
    for gaps u_i >= 0, signed zeros included; comparisons, because the
    builtin calls cost 4x."""
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


# fixed, so that every add, multiply and divide rounds as Python's do
_CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")


def _remove_stale_builds(path):
    """Remove the builds of other sources or flags, ``_sweep-<8 hex digits>.so``,
    beside the build at path; a concurrent builder's ``_sweep-<key>-<pid>.so``
    does not match, and a file that cannot be removed stays."""
    folder, keep = os.path.split(path)
    for name in os.listdir(folder):
        key = name[len("_sweep-"):-len(".so")]
        if (name != keep and name.startswith("_sweep-") and name.endswith(".so")
                and len(key) == 8 and all(ch in "0123456789abcdef" for ch in key)):
            try:
                os.remove(os.path.join(folder, name))
            except OSError:
                pass


def _load_kernel():
    """The C kernels ``_sweep.c`` as a ctypes library, built with the system C
    compiler into a file keyed by the source and flags when no such file is
    there yet; once it loads, it replaces the builds of other keys.  None,
    after one warning naming the reason, when it cannot be built or loaded."""
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
    try:
        with open(source, "rb") as fh:
            key = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(fh.read()))
        path = f"{source[:-2]}-{key:08x}.so"
        if not os.path.exists(path):
            import subprocess
            tmp = f"{source[:-2]}-{key:08x}-{os.getpid()}.so"
            try:
                proc = subprocess.run(["cc", *_CFLAGS, "-o", tmp, source],
                                      capture_output=True, text=True)
                if proc.returncode:
                    raise OSError(f"cc exited {proc.returncode}: {proc.stderr.strip()}")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        lib = ctypes.CDLL(path)
        _remove_stale_builds(path)
    except OSError as exc:
        warnings.warn(f"lipshift: the C kernels are unavailable ({exc}); fitting with the "
                      "Python sweep, 30-70x slower, running PAVA and the empirical spread "
                      "in Python and the t_n solve's rounds in numpy", stacklevel=2)
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.lse_roots.argtypes = [ptr, ptr, ptr, i64, ptr, ptr]
    lib.lse_clip.argtypes = [ptr, ptr, i64]
    lib.iso_fit.argtypes = [ptr, i64, ptr, ptr, ptr]
    lib.emp_spread.argtypes = [ptr, i64, ctypes.c_double, ptr, i64, ptr]
    lib.tn_round.argtypes = lib.tn_mass.argtypes = [ptr]
    lib.lse_roots.restype = lib.lse_clip.restype = lib.iso_fit.restype = None
    lib.emp_spread.restype = lib.tn_mass.restype = None
    lib.tn_round.restype = i64
    return lib


_KERNEL = _load_kernel()


def _fitted_values(y, c, u):
    """The roots of the forward sweep clipped by the backward pass: in C when
    the kernel loaded, with the Python sweep's bits, else in Python.  y, c = 2
    w (n each) and u (n - 1) are C-contiguous float64 arrays."""
    if _KERNEL is None:
        return _clip_roots(_stack_roots(y, c, u), u)
    n = len(y)
    # the kernel reads raw memory: check what it assumes
    if not (n >= 1 and c.shape == (n,) and u.shape == (n - 1,) and all(
            a.dtype == np.float64 and a.flags.c_contiguous for a in (y, c, u))):
        raise ValueError("the C sweep needs C-contiguous float64 y, c (n >= 1 each) and u (n - 1)")
    f = np.empty(n)
    knots = np.empty(2 * n + 1, complex)
    _KERNEL.lse_roots(y.ctypes.data, c.ctypes.data, u.ctypes.data, n, knots.ctypes.data,
                      f.ctypes.data)
    _KERNEL.lse_clip(f.ctypes.data, u.ctypes.data, n)
    return f


def fit_lipschitz_lse(sample: RegressionSample, budget: float) -> LipschitzFit:
    """Exact minimizer of the slope-constrained least squares problem with
    Lipschitz constant L = budget in (0, 1]."""
    if not 0.0 < budget <= 1.0:
        raise InvalidParameterError(f"Lipschitz budget must be in (0, 1], got {budget}")
    xu, ybar, w, extra = _merge_duplicates(sample.x, sample.y)
    gaps = budget * np.diff(xu)
    c = 2.0 * w
    f = _fitted_values(ybar, c, gaps)

    objective = float(np.sum(w * (f - ybar) ** 2) + extra)
    residual = _kkt_residual(f, ybar, c, gaps)
    return LipschitzFit(knots=xu, values=f, budget=float(budget),
                        objective=objective, kkt_residual=residual)


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


def _pava(y):
    """Pool adjacent violators on the float array y, in Python: the C
    kernel's fallback and its reference."""
    y = y.tolist()  # Python floats: PAVA on numpy scalars is 1.4x slower
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


def _isotonic_values(y):
    """PAVA on y, a C-contiguous float64 array: in C when the kernel
    loaded, with `_pava`'s bits, else `_pava`."""
    if _KERNEL is None:
        return _pava(y)
    n = len(y)
    if not (n >= 1 and y.shape == (n,) and y.dtype == np.float64 and y.flags.c_contiguous):
        raise ValueError("the C isotonic fit needs a C-contiguous float64 y (n >= 1)")
    tot, cnt, out = np.empty(n), np.empty(n, np.int64), np.empty(n)
    _KERNEL.iso_fit(y.ctypes.data, n, tot.ctypes.data, cnt.ctypes.data, out.ctypes.data)
    return out


def fit_isotonic_lse(sample: RegressionSample) -> np.ndarray:
    """Nondecreasing least squares fit at the design points (pool adjacent
    violators, in C where the kernel loaded); identical to the min-max
    partial-sum formula."""
    return _isotonic_values(sample.y)


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
    if not 0.0 < h < np.inf:
        raise InvalidParameterError(f"bandwidth must be positive and finite, got {h}")
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
