"""Design distributions on [0, 1].

Each distribution carries an exact density and CDF, and every design but the
mixture an exact inverse CDF, all vectorized over numpy arrays.  A design
writes its density once, for points already in [0, 1] (its "unit" density,
which clips nothing), and its CDF as a tree of kernel nodes (below).
`density` and `cdf` clip x once in front of them, the density reading zero
outside [0, 1]; `interval_mass` goes through `cdf`, and the spread solve
clips its interval ends itself.
One reader, `_points`, reads every design's points: bools, integers and
floats, not strings, complex numbers or objects.  Supported families:

* ``uniform`` -- density 1 on [0, 1].
* ``power`` -- density (alpha + 1) x^alpha, a low-density region near 0.
* ``example3`` -- the sample-size indexed family with level
  ``phi = min(1, n^(-1/4) log n)`` on the middle interval and linear ramps
  of slope 16(1 - phi) toward the endpoints.
* ``tabulated`` -- piecewise-linear density between grid nodes with exact
  trapezoid CDF (values are renormalized to total mass one); its inverse
  CDF runs in the C library that ``_kernel`` loads (``tab_ppf`` in
  ``_sweep.c``).
* ``mixture`` -- convex combination of two existing distributions.

Every design's CDF is its `DesignDistribution.tree`, which one evaluator
in that library, ``unit_cdf``, reads; a mixture's tree holds its
components' trees.  A power design whose alpha + 1 is an integer k up to
`_POWER_MAX` (alpha = 1, 2, 6, 10, ...) is a node that multiplies x by
itself k - 1 times; any other power design is a node of libm's ``pow``,
whose bits are Python's ``math.pow``'s.  The uniform design's node is the
point itself, and it or an integer power, alone, is evaluated in numpy
with the same float operations, without a kernel call.  The t_n solve of
``spread`` evaluates the same tree.  The kernels give the bits of the
numpy bodies they replaced (and of ``math.pow``), kept in
``tests/kernel_reference.py`` as references.

Every inverse CDF is closed form and rejects NaN and levels outside [0, 1].
The mixture's `ppf` raises: a mixture is drawn by composition instead.

Distributions are immutable.  `sample` is the one place that turns uniforms
into design points, and the harness draws through it too: a design's
closed-form inverse CDF maps uniforms to points, and a mixture's draws come
from its components.  It takes an explicit seed or Generator, so parallel
callers own independent streams.  It draws and maps the uniforms in fixed
blocks, written into one preallocated output, so a draw holds its output
and one block's temporaries; the stream, and so every draw, is the same as
one call on all the uniforms would give.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernel import KERNEL, address
from .errors import (
    InvalidInputError,
    InvalidIntervalError,
    InvalidParameterError,
    NonDoublingError,
)

__all__ = [
    "DesignDistribution",
    "uniform",
    "power",
    "example3",
    "tabulated",
    "mixture",
    "from_spec",
    "interval_mass",
    "sample",
    "doubling_constant",
]


@dataclass(frozen=True, eq=False)
class DesignDistribution:
    """A distribution on [0, 1]: unit density (for x in [0, 1]), CDF tree, ppf.

    ``tree`` holds the CDF's kernel nodes in prefix order as one float64
    array: a node's kind, its numbers, then a mixture's two components.
    Only the constructors build it."""

    kind: str
    unit_density: Callable
    tree: np.ndarray
    ppf: Callable
    params: dict = field(default_factory=dict)
    sup_density: float = np.inf

    def density(self, x):
        """The density at x, zero outside [0, 1] (and at NaN)."""
        x = _points(x)
        return np.where((x >= 0.0) & (x <= 1.0), self.unit_density(_clip01(x)), 0.0)

    def cdf(self, x):
        """The CDF at x clipped to [0, 1], by the C kernel's ``unit_cdf`` on
        the tree.  A uniform or power tree alone is evaluated here in numpy
        with the kernel's float operations, since a kernel call costs more
        than the products."""
        x = np.asarray(_clip01(x))
        kind = self.tree[0]
        if kind == _UNIFORM:  # the point itself
            return x
        if kind == _POWER:  # ((x x) x) ... x, the kernel's products
            y = x
            for _ in range(int(self.tree[1]) - 1):
                y = y * x
            return y
        out = x.copy()  # C-contiguous; the kernel replaces the points by the CDF
        KERNEL.unit_cdf(address(self.tree, self.tree.shape), address(out, out.shape), out.size)
        return out

    def __repr__(self):
        return f"DesignDistribution(kind={self.kind!r}, params={self.params!r})"


def _levels(u):
    """u as a float array; NaN or levels outside [0, 1] are rejected."""
    u = np.asarray(u, float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise InvalidInputError("inverse CDF evaluated at a NaN level or one outside [0, 1]")
    return u


def _points(x):
    """x as a float array; points that are not bools, integers or floats
    (strings, complex numbers, objects) are rejected.  NaN and infinite
    points pass: each caller decides what they mean."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise InvalidInputError(f"points of dtype {x.dtype} are not numbers")
    return x.astype(float, copy=False)


def _clip01(x):
    """The points x (by `_points`) clipped to [0, 1] as np.clip(x, 0.0, 1.0)
    does, -0.0 and NaN included: np.maximum and np.minimum return their
    second argument on a tie.  np.clip itself runs through Python-level
    wrappers, a cost that short arrays pay on every call."""
    return np.minimum(1.0, np.maximum(0.0, _points(x)))


# the node kinds of a CDF's tree, numbered as in ``_sweep.c``
_UNIFORM, _POWER, _EXAMPLE3, _TABULATED, _MIXTURE, _POW = range(6)
# the largest integer exponent alpha + 1 of a power node; a larger one or
# one that is no integer is a pow node
_POWER_MAX = 16


def uniform() -> DesignDistribution:
    return DesignDistribution("uniform", lambda x: 1.0, np.array([_UNIFORM], float), _levels,
                              sup_density=1.0)


def power(alpha: float) -> DesignDistribution:
    """Density (alpha + 1) x^alpha on [0, 1]; CDF x^(alpha + 1), a node of
    the C kernel's tree: for an integer alpha + 1 up to `_POWER_MAX` the
    product of alpha + 1 factors x, and libm's pow otherwise."""
    if not (_is_finite(alpha) and alpha > 0.0):
        raise InvalidParameterError(f"power exponent must be a finite number > 0, got {alpha!r}")
    a, k = float(alpha), float(alpha) + 1.0

    # np.power, not **: _clip01 gives a numpy scalar for a 0-d x, and the
    # scalar ** rounds differently from the array power
    def unit_density(x):
        return k * np.power(x, a)

    def ppf(u):
        return _levels(u) ** (1.0 / k)

    return DesignDistribution("power", unit_density,
                              np.array([_POWER if k.is_integer() and k <= _POWER_MAX else _POW, k]),
                              ppf, {"alpha": a}, sup_density=k)


def _example3_phi(n: int) -> float:
    return min(1.0, n ** (-0.25) * np.log(n))


def example3(n: int) -> DesignDistribution:
    """Level phi on [1/4, 3/4] with linear ramps of slope 16(1 - phi) outside."""
    _check_sizes("example3", 3, n)
    phi = _example3_phi(n)
    ramp = 16.0 * (1.0 - phi)
    # piece boundaries of the CDF
    f14 = phi / 4.0 + (1.0 - phi) / 2.0
    f34 = f14 + phi / 2.0

    def unit_density(x):
        return phi + ramp * np.maximum(np.maximum(0.25 - x, 0.0), x - 0.75)

    def ppf(u):
        u = _levels(u)
        if phi >= 1.0:
            return u
        a = ramp / 2.0  # quadratic coefficient of each ramp piece
        b = phi + ramp / 4.0  # density at 0 and 1
        # left piece: u = b x - a x^2, smaller root
        disc_l = np.maximum(b**2 - 4.0 * a * np.minimum(u, f14), 0.0)
        left = (b - np.sqrt(disc_l)) / (2.0 * a)
        mid = 0.25 + (u - f14) / phi
        # right piece: u - f34 = phi s + a s^2 with s = x - 3/4
        disc_r = np.maximum(phi**2 + 4.0 * a * np.maximum(u - f34, 0.0), 0.0)
        right = 0.75 + (-phi + np.sqrt(disc_r)) / (2.0 * a)
        return np.where(u <= f14, left, np.where(u <= f34, mid, right))

    return DesignDistribution("example3", unit_density,
                              np.array([_EXAMPLE3, phi, ramp, f14, f34]), ppf,
                              {"n": int(n), "phi": phi}, sup_density=phi + ramp / 4.0)


def tabulated(grid, values) -> DesignDistribution:
    """Piecewise-linear density through (grid, values), renormalized to mass one.

    The density is zero outside [grid[0], grid[-1]]; the CDF is the exact
    integral of the interpolant (piecewise quadratic), taken on each half of
    a segment from the nearer node, so no sum cancels near a node of zero
    density.  The inverse CDF is exact too: u falls in the first segment i
    whose end mass cum[i+1] reaches u, and x = grid[i] + dx with
    0.5 s dx^2 + v_i dx = u - cum[i] (s the segment's slope), solved as
    dx = 2 (u - cum[i]) / (v_i + sqrt(v_i^2 + 2 s (u - cum[i]))), which has
    no cancellation for either sign of s.  At the mass of a zero-density
    stretch this gives the stretch's left end, the smallest x with
    cdf(x) >= u.  Both run in C (a tabulated node of ``unit_cdf``,
    ``tab_ppf``), on one table of the grid, the values, the node masses cum
    and the slopes.
    """
    g = np.asarray(grid, float)
    v = np.asarray(values, float)
    if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
        raise InvalidParameterError("tabulated needs matching 1-d grid and values with >= 2 nodes")
    # each test is written so that a NaN fails it
    if not np.all(np.diff(g) > 0):
        raise InvalidParameterError("tabulated grid must be strictly ascending")
    if not (g[0] >= 0.0 and g[-1] <= 1.0):
        raise InvalidParameterError("tabulated grid must lie in [0, 1]")
    if not np.all((v >= 0) & (v < np.inf)):
        raise InvalidParameterError("tabulated density values must be finite and non-negative")
    with np.errstate(all="ignore"):  # a mass, value or slope out of range is refused below
        mass = np.trapezoid(v, g)
        v = v / mass
        m, table = g.size, _tabulated_table(g, v)
    if not (0.0 < mass < np.inf and np.all(np.isfinite(table))):
        raise InvalidParameterError(f"tabulated density must have a finite mass > 0 (got {mass}) "
                                    f"and finite renormalized values and segment slopes")

    def unit_density(x):
        return np.where((x < g[0]) | (x > g[-1]), 0.0, np.interp(x, g, v))

    def ppf(u):
        u = _levels(u)
        us, out = u.ravel(), np.empty(u.shape)
        KERNEL.tab_ppf(address(table, (4, m)), m, address(us, (us.size,)), us.size,
                       address(out, u.shape))
        return out

    return DesignDistribution("tabulated", unit_density,
                              np.concatenate([[_TABULATED, m], table.ravel()]), ppf,
                              {"grid": g, "values": v}, sup_density=float(v.max()))


def _tabulated_table(g, v):
    """The C kernels' table of the design through (g, v), v of mass one: the
    rows g, v, cum (the CDF at each node, the last set to 1) and each
    segment's slope, then a zero, as one C-contiguous (4, m) float array."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
    cum[-1] = 1.0
    return np.stack([g, v, cum, np.append(np.diff(v) / np.diff(g), 0.0)])


def mixture(p: DesignDistribution, q: DesignDistribution, weight_p: float) -> DesignDistribution:
    """Convex combination weight_p * P + (1 - weight_p) * Q."""
    if not (_is_finite(weight_p) and 0.0 <= weight_p <= 1.0):
        raise InvalidParameterError(f"mixture weight must be a number in [0, 1], got {weight_p!r}")
    w = float(weight_p)

    def unit_density(x):
        return w * p.unit_density(x) + (1.0 - w) * q.unit_density(x)

    def ppf(u):
        raise InvalidParameterError("a mixture has no inverse CDF: draw it with `densities.sample`")

    return DesignDistribution("mixture", unit_density,
                              np.concatenate([[_MIXTURE, w], p.tree, q.tree]), ppf,
                              {"weight_p": w, "p": p, "q": q},
                              sup_density=w * p.sup_density + (1.0 - w) * q.sup_density)


def _is_int(v):
    """v is an integer; bools are not, though Python counts them as ints."""
    return not isinstance(v, bool) and isinstance(v, (int, np.integer))


def _is_finite(v):
    """v is a real number within the range of finite floats, and not a bool."""
    return (_is_int(v) or isinstance(v, (float, np.floating))) and abs(v) <= sys.float_info.max


def _check_sizes(what, least, n, m=None):
    """Raise InvalidParameterError, naming what and the sizes, unless the
    sample size n, and the size m if given, are integers >= least whose sum
    is below 2**64: np.log makes an object array of a larger Python integer
    and raises TypeError."""
    if (_is_int(n) and n >= least and (m is None or _is_int(m) and m >= least)
            and int(n) + (0 if m is None else int(m)) < 2**64):
        return
    if m is None:
        raise InvalidParameterError(f"{what} needs an integer n >= {least} with n < 2**64, "
                                    f"got n={n!r}")
    raise InvalidParameterError(f"{what} needs integers n, m >= {least} with n + m < 2**64, "
                                f"got n={n!r}, m={m!r}")


def _within(v, rng):
    """Whether v is in rng: None (any v), names, or an interval text such as "(0, 1]"."""
    if not isinstance(rng, str):
        return rng is None or v in rng
    lo, hi = map(float, rng[1:-1].split(","))
    return (lo < v if rng[0] == "(" else lo <= v) and (v < hi if rng[-1] == ")" else v <= hi)


# a table's type -> (whether a value has it, what such a value is)
_RULES = {float: (_is_finite, "a finite number"), int: (_is_int, "an integer"),
          str: (lambda v: isinstance(v, str), "a string"),
          dict: (lambda v: isinstance(v, dict), "a JSON object")}


def _read(obj, table, what, error):
    """The JSON object obj over table's defaults; raises error naming the key
    (and the range, for a value outside it).

    table maps each key to its default, or to its type where obj must give
    the key; a list entry ([float], or a list default) takes a nonempty list
    of items like its first.  A value must have its entry's type by `_RULES`
    (bools are not numbers).  An entry (entry, range, *also) also needs each
    number or name in the range, by `_within`, and passes the values in
    also as they are.  A None entry takes any value, which its caller
    checks, and is no default: its key stays out unless given.
    """
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = [key for key in obj if key not in table]
    if unknown:
        raise error(f"{what} has no key {unknown[0]!r}; its keys are {sorted(table)}")
    for key, entry in table.items():
        like, rng, *also = entry if isinstance(entry, tuple) else (entry, None)
        many = isinstance(like, list)
        one = like[0] if many else like
        fits, want = _RULES.get(one if isinstance(one, type) else type(one), (None, ""))
        if isinstance(one, type) and key not in obj:
            raise error(f"{what} needs key {key!r}")
        v = obj.get(key, like)
        if fits and not (type(v) in map(type, also) and v in also
                         or (not many or isinstance(v, (list, tuple)) and len(v) > 0)
                         and all(fits(x) and _within(x, rng) for x in (v if many else [v]))):
            span = f" in {rng if isinstance(rng, str) else sorted(rng)}" if rng else ""
            raise error(f"{what} key {key!r} must be " + "".join(f"{a!r} or " for a in also)
                        + f"{'a nonempty list, each ' * many}{want}{span}, got {v!r}")
    return {**{key: e[0] if isinstance(e, tuple) else e for key, e in table.items()
               if e is not None}, **obj}


# distribution kind -> (its constructor, the type of each key; a spec gives all)
_KINDS = {"uniform": (uniform, {}), "power": (power, {"alpha": float}),
          "example3": (example3, {"n": int}),
          "tabulated": (tabulated, {"grid": [float], "values": [float]}),
          "mixture": (lambda p, q, weight_p: mixture(from_spec(p), from_spec(q), weight_p),
                      {"p": dict, "q": dict, "weight_p": float})}


def from_spec(spec) -> DesignDistribution:
    """Build a distribution from a JSON object (or its text) with a kind and
    each key of `_KINDS[kind]`; a mixture nests its two components, as in
    {"kind": "mixture", "p": {...}, "q": {...}, "weight_p": w}."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in _KINDS):
        raise InvalidParameterError(f"a distribution spec must be a JSON object with a kind "
                                    f"from {sorted(_KINDS)}, got {spec!r}")
    make, keys = _KINDS[kind]
    args = _read(spec, {"kind": None, **keys}, f"{kind} distribution spec", InvalidParameterError)
    return make(**{key: args[key] for key in keys})


def interval_mass(d: DesignDistribution, a, b):
    """Mass of [a, b] clipped to [0, 1].  Vectorized; raises if a > b or
    an endpoint is NaN (an infinite one is clipped) or not a number.

    d.cdf(b) - d.cdf(a) floored at 0.0: a zero difference comes out as +0.0
    whatever the signs of the zeros that made it."""
    a, b = _points(a), _points(b)
    if not (a <= b).all():  # False where either is NaN
        raise InvalidIntervalError("interval endpoints NaN or out of order (a > b)")
    return np.maximum(d.cdf(b) - d.cdf(a), 0.0)


def _simpson(y, x) -> float:
    """Composite Simpson rule for y sampled on an odd number of equispaced
    nodes x, as built by ``np.linspace``."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


# uniforms drawn and mapped per block in `sample`; the draws do not depend on it
_BLOCK = 8192


def sample(d: DesignDistribution, count: int, seed) -> np.ndarray:
    """`count` independent draws from d; the one place that turns uniforms
    into design points.

    `seed` is anything `np.random.default_rng` takes, including a
    Generator, whose stream the draws then consume; a fixed seed gives fixed
    draws.  A mixture is drawn by composition, as the pooled sample of the
    transfer setting is made: `count` uniforms choose the component of each
    draw (p below weight_p, q otherwise), then p's draws and q's draws come
    from `sample` on the same stream, in that order.  Every other design
    maps `count` uniforms through its closed-form inverse CDF.

    The uniforms are drawn and mapped in blocks of `_BLOCK`, each written
    into one preallocated output.  Successive `rng.random` calls continue
    one stream, so the draws and the Generator's state after them are those
    of one call on all `count` uniforms.  A draw holds its output (a
    mixture's also its component choices and one component's draws) and
    one block's temporaries, not several count-sized arrays.
    """
    if not (_is_int(count) and count >= 1):
        raise InvalidParameterError(f"sample count must be an integer >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    mixed = d.kind == "mixture"
    out = np.empty(count, bool if mixed else float)
    for i in range(0, count, _BLOCK):
        u = rng.random(min(_BLOCK, count - i))
        out[i:i + _BLOCK] = u < d.params["weight_p"] if mixed else d.ppf(u)
    if not mixed:
        return out
    from_p, k = out, int(np.count_nonzero(out))
    x = np.empty(count)
    if k:
        x[from_p] = sample(d.params["p"], k, rng)
    if k < count:
        x[~from_p] = sample(d.params["q"], count - k, rng)
    return x


def doubling_constant(d: DesignDistribution, eta_max: float) -> float:
    """Grid estimate of sup P([x +- 2 eta]) / P([x +- eta]) for eta <= eta_max.

    A lower estimate of the true doubling constant: the supremum runs over a
    fixed grid only, 512 equispaced x in [0, 1] and 64 radii geomspaced from
    eta_max / 512 to eta_max.  The radii are taken in blocks of 8, keeping a
    running max, so no 512 x 64 array is built; a max is exact, so the value
    does not depend on the block size.  Raises NonDoublingError at the first
    block with an interval of zero mass, and InvalidParameterError unless
    eta_max is a finite number > 0.
    """
    if not (_is_finite(eta_max) and eta_max > 0.0):
        raise InvalidParameterError(f"eta_max must be a finite number > 0, got {eta_max!r}")
    x = np.linspace(0.0, 1.0, 512)[:, None]
    etas = np.geomspace(eta_max / 512.0, eta_max, 64)
    best = -np.inf
    for j in range(0, 64, 8):
        eta = etas[None, j:j + 8]
        denom = interval_mass(d, x - eta, x + eta)
        if np.any(denom <= 0.0):
            raise NonDoublingError("zero interval mass on the grid: distribution is not doubling there")
        numer = interval_mass(d, x - 2.0 * eta, x + 2.0 * eta)
        best = np.maximum(best, np.max(numer / denom))
    return float(best)
