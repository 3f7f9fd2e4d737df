"""Design distributions on [0, 1].

Each distribution carries an exact density, CDF, and inverse CDF, all
vectorized over numpy arrays.  Supported families:

* ``uniform`` -- density 1 on [0, 1].
* ``power`` -- density (alpha + 1) x^alpha, a low-density region near 0.
* ``example3`` -- the sample-size indexed family with level
  ``phi = min(1, n^(-1/4) log n)`` on the middle interval and linear ramps
  of slope 16(1 - phi) toward the endpoints.
* ``tabulated`` -- piecewise-linear density between grid nodes with exact
  trapezoid CDF (values are renormalized to total mass one).
* ``mixture`` -- convex combination of two existing distributions.

Distributions are immutable; sampling takes an explicit seed so parallel
callers own independent streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidIntervalError, InvalidParameterError, NonDoublingError

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


@dataclass(frozen=True)
class DesignDistribution:
    """A distribution on [0, 1] given by (density, cdf, ppf) evaluators."""

    kind: str
    density: Callable
    cdf: Callable
    ppf: Callable
    params: dict = field(default_factory=dict)
    sup_density: float = np.inf

    def __repr__(self):
        return f"DesignDistribution(kind={self.kind!r}, params={self.params!r})"


def _bisect_ppf(cdf, u, a, b):
    """Inverse of a continuous nondecreasing CDF on [a, b] by 60 bisection
    steps, so to (b - a) 2^-60 < 1e-12; shaped like u.  Only the mixture
    uses it: its CDF has no closed-form inverse."""
    shape = np.shape(u)
    u = np.atleast_1d(np.asarray(u, float))
    lo = np.full_like(u, a)
    hi = np.full_like(u, b)
    for _ in range(60):
        midp = 0.5 * (lo + hi)
        below = cdf(midp) < u
        lo = np.where(below, midp, lo)
        hi = np.where(below, hi, midp)
    return (0.5 * (lo + hi)).reshape(shape)


def uniform() -> DesignDistribution:
    return DesignDistribution(
        kind="uniform",
        density=lambda x: np.where((np.asarray(x, float) >= 0.0) & (np.asarray(x, float) <= 1.0), 1.0, 0.0),
        cdf=lambda x: np.clip(np.asarray(x, float), 0.0, 1.0),
        ppf=lambda u: np.asarray(u, float),
        sup_density=1.0,
    )


def power(alpha: float) -> DesignDistribution:
    """Density (alpha + 1) x^alpha on [0, 1]; CDF x^(alpha + 1)."""
    if alpha <= 0:
        raise InvalidParameterError(f"power exponent must be positive, got {alpha}")
    a = float(alpha)

    def density(x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return (a + 1.0) * x**a

    def cdf(x):
        return np.clip(np.asarray(x, float), 0.0, 1.0) ** (a + 1.0)

    def ppf(u):
        return np.asarray(u, float) ** (1.0 / (a + 1.0))

    return DesignDistribution("power", density, cdf, ppf, {"alpha": a}, sup_density=a + 1.0)


def _example3_phi(n: int) -> float:
    return min(1.0, n ** (-0.25) * np.log(n))


def example3(n: int) -> DesignDistribution:
    """Level phi on [1/4, 3/4] with linear ramps of slope 16(1 - phi) outside."""
    if n <= 2:
        raise InvalidParameterError(f"example3 requires n > 2, got {n}")
    phi = _example3_phi(n)
    ramp = 16.0 * (1.0 - phi)
    # piece boundaries of the CDF
    f14 = phi / 4.0 + (1.0 - phi) / 2.0
    f34 = f14 + phi / 2.0

    def density(x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        return phi + ramp * np.maximum(np.maximum(0.25 - x, 0.0), x - 0.75)

    def cdf(x):
        x = np.clip(np.asarray(x, float), 0.0, 1.0)
        left = phi * x + ramp * (x / 4.0 - x**2 / 2.0)
        mid = f14 + phi * (x - 0.25)
        s = x - 0.75
        right = f34 + phi * s + (ramp / 2.0) * s**2
        return np.where(x <= 0.25, left, np.where(x <= 0.75, mid, right))

    def ppf(u):
        u = np.asarray(u, float)
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

    return DesignDistribution(
        "example3", density, cdf, ppf, {"n": int(n), "phi": phi}, sup_density=phi + ramp / 4.0
    )


def tabulated(grid, values) -> DesignDistribution:
    """Piecewise-linear density through (grid, values), renormalized to mass one.

    The density is zero outside [grid[0], grid[-1]]; the CDF is the exact
    integral of the interpolant (piecewise quadratic).  The inverse CDF is
    exact too: u falls in the first segment i whose end mass cum[i+1] reaches
    u, and x = grid[i] + dx with 0.5 s dx^2 + v_i dx = u - cum[i] (s the
    segment's slope), solved as dx = 2 (u - cum[i]) / (v_i + sqrt(v_i^2 +
    2 s (u - cum[i]))), which has no cancellation for either sign of s.  At
    the mass of a zero-density stretch this gives the stretch's left end,
    the smallest x with cdf(x) >= u.
    """
    g = np.asarray(grid, float)
    v = np.asarray(values, float)
    if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
        raise InvalidParameterError("tabulated needs matching 1-d grid and values with >= 2 nodes")
    if np.any(np.diff(g) <= 0):
        raise InvalidParameterError("tabulated grid must be strictly ascending")
    if g[0] < 0.0 or g[-1] > 1.0:
        raise InvalidParameterError("tabulated grid must lie in [0, 1]")
    if np.any(v < 0):
        raise InvalidParameterError("tabulated density values must be non-negative")
    mass = np.trapezoid(v, g)
    if mass <= 0:
        raise InvalidParameterError("tabulated density has zero total mass")
    v = v / mass
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])
    cum[-1] = 1.0

    def density(x):
        x = np.asarray(x, float)
        out = np.interp(x, g, v)
        return np.where((x < g[0]) | (x > g[-1]), 0.0, out)

    slope = np.diff(v) / np.diff(g)

    def cdf(x):
        x = np.clip(np.asarray(x, float), g[0], g[-1])
        i = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
        dx = x - g[i]
        return cum[i] + v[i] * dx + 0.5 * slope[i] * dx**2

    def ppf(u):
        u = np.asarray(u, float)
        i = np.clip(np.searchsorted(cum, u) - 1, 0, g.size - 2)
        du = np.maximum(u - cum[i], 0.0)
        den = v[i] + np.sqrt(np.maximum(v[i] ** 2 + 2.0 * slope[i] * du, 0.0))
        dx = np.divide(2.0 * du, den, out=np.zeros_like(du), where=den > 0.0)
        return np.minimum(g[i] + dx, g[i + 1])

    return DesignDistribution(
        "tabulated", density, cdf, ppf, {"grid": g, "values": v}, sup_density=float(v.max())
    )


def mixture(p: DesignDistribution, q: DesignDistribution, weight_p: float) -> DesignDistribution:
    """Convex combination weight_p * P + (1 - weight_p) * Q."""
    if not 0.0 <= weight_p <= 1.0:
        raise InvalidParameterError(f"mixture weight must be in [0, 1], got {weight_p}")
    w = float(weight_p)

    def density(x):
        return w * p.density(x) + (1.0 - w) * q.density(x)

    def cdf(x):
        return w * p.cdf(x) + (1.0 - w) * q.cdf(x)

    return DesignDistribution(
        "mixture",
        density,
        cdf,
        lambda u: _bisect_ppf(cdf, u, 0.0, 1.0),
        {"weight_p": w, "p": p, "q": q},
        sup_density=w * p.sup_density + (1.0 - w) * q.sup_density,
    )


def from_spec(spec) -> DesignDistribution:
    """Build a distribution from a JSON object (or JSON string).

    A mixture nests its two components:
    {"kind": "mixture", "p": {...}, "q": {...}, "weight_p": w}.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"distribution spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    try:
        if kind == "uniform":
            return uniform()
        if kind == "power":
            return power(spec["alpha"])
        if kind == "example3":
            return example3(spec["n"])
        if kind == "tabulated":
            return tabulated(spec["grid"], spec["values"])
        if kind == "mixture":
            return mixture(from_spec(spec["p"]), from_spec(spec["q"]), spec["weight_p"])
    except KeyError as exc:
        raise InvalidParameterError(f"{kind} distribution spec needs key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed {kind} distribution spec: {exc}") from None
    raise InvalidParameterError(f"unknown distribution kind: {kind!r}")


def interval_mass(d: DesignDistribution, a, b):
    """Mass of [a, b] clipped to [0, 1].  Vectorized; raises if a > b."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if np.any(a > b):
        raise InvalidIntervalError("interval endpoints out of order (a > b)")
    return np.maximum(d.cdf(np.minimum(b, 1.0)) - d.cdf(np.maximum(a, 0.0)), 0.0)


def _simpson(y, x) -> float:
    """Composite Simpson rule for y sampled on an odd number of equispaced
    nodes x, as built by ``np.linspace``."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def sample(d: DesignDistribution, count: int, seed: int) -> np.ndarray:
    """Inverse-CDF sample of the given size; deterministic for a fixed seed."""
    if count < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return np.atleast_1d(np.asarray(d.ppf(rng.random(count)), float))


def doubling_constant(d: DesignDistribution, eta_max: float, x_grid=None, eta_grid=None) -> float:
    """Grid estimate of sup P([x +- 2 eta]) / P([x +- eta]) for eta <= eta_max.

    A lower estimate of the true doubling constant (the supremum runs over
    the grid only).  Defaults: 512 equispaced x, 64 log-spaced eta.
    """
    if eta_max <= 0:
        raise InvalidParameterError(f"eta_max must be positive, got {eta_max}")
    if x_grid is None:
        x_grid = np.linspace(0.0, 1.0, 512)
    if eta_grid is None:
        eta_grid = np.geomspace(eta_max / 512.0, eta_max, 64)
    x = np.asarray(x_grid, float)[:, None]
    eta = np.asarray(eta_grid, float)[None, :]
    if np.any(eta <= 0) or np.any(eta > eta_max):
        raise InvalidParameterError("eta_grid must lie in (0, eta_max]")
    denom = interval_mass(d, x - eta, x + eta)
    if np.any(denom <= 0.0):
        raise NonDoublingError("zero interval mass on the grid: distribution is not doubling there")
    numer = interval_mass(d, x - 2.0 * eta, x + 2.0 * eta)
    return float(np.max(numer / denom))
