"""Executable versions of the proof devices behind the local rate results.

Five constructions, each stated as code, and the claim that `run_check`
asserts about each by its name in `_CHECKS`, returning (passed, measured
quantities):

* ``perturbation``: a local perturbation g of a 1-Lipschitz psi that stays
  between a reference f and psi on a controlled support interval; for a
  tent psi of height 2 K t_n(center) over f = 0, g has each property of
  `perturbation_faults`;
* ``cover``: the 3^k candidate set covering the Lipschitz functions
  supported on [a, b] at sup-distance r; 200 random ones each lie within r
  of the member `cover_center_for` picks;
* ``kl``: the Kullback-Leibler divergence between two regression
  experiments with standard normal noise; for a tent of half-width h
  against zero it is in [0, (n sup p + m sup q) h^3 / 3], the upper end met
  by uniform designs when the tent lies in [0, 1];
* ``lowerbound``: the disjoint-bump hypothesis family behind the two-sample
  minimax lower bound; its mean KL from f_0 = 0 is at most log(n + m) / 36;
* ``transfer-exponent``: the eta^gamma-weighted mass ratio behind the
  transfer exponent; its value at the smallest eta is at most 3 times the
  one at the largest, as for a transfer exponent of at most gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .densities import (DesignDistribution, _check_sizes, _is_int, _read, _simpson, from_spec,
                        interval_mass, mixture)
from .errors import (
    ConfigError,
    InvalidParameterError,
    NonDoublingError,
    NoViolationError,
    SizeCapError,
)
from .spread import SpreadFunction

__all__ = [
    "Perturbation",
    "HypothesisFamily",
    "build_perturbation",
    "lipschitz_cover",
    "cover_center_for",
    "kl_divergence",
    "build_lower_bound_family",
    "transfer_exponent_check",
    "perturbation_faults",
    "run_check",
]


@dataclass(frozen=True)
class Perturbation:
    x_star: float
    x_tilde: float
    s_n: float
    x_ell: float
    x_u: float
    delta: float
    _psi: callable
    _f: callable

    def h(self, x):
        """The shifted tent psi(x~) - f(x~) + delta |x - x~| + f(x) - s_n/2."""
        x = np.asarray(x, float)
        return (self._psi(self.x_tilde) - self._f(self.x_tilde)
                + self.delta * np.abs(x - self.x_tilde) + self._f(x) - self.s_n / 2.0)

    def g(self, x):
        """psi outside [x_ell, x_u], the tent h inside."""
        x = np.asarray(x, float)
        inside = (x >= self.x_ell) & (x <= self.x_u)
        return np.where(inside, self.h(x), self._psi(x))


def _check_lipschitz(fn, grid, const, label):
    vals = np.asarray(fn(grid), float)
    slopes = np.abs(np.diff(vals)) / np.diff(grid)
    if np.any(slopes > const + 1e-7):
        raise InvalidParameterError(f"{label} exceeds Lipschitz budget {const} on the grid")


def _refine_crossing(diff, lo, hi):
    """Bisect for a root of diff between lo (diff >= 0) and hi (diff < 0)."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if diff(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-10:
            break
    return 0.5 * (lo + hi)


def build_perturbation(psi, f, delta: float, s: SpreadFunction, K: float, grid) -> Perturbation:
    """Construct the controlled perturbation between f and psi.

    Requires that psi exceeds f by at least K t_n somewhere (otherwise there
    is nothing to perturb and a no-violation error is raised).  All argmax
    and crossing searches run on the supplied grid, with one bisection
    refinement for the support endpoints.
    """
    grid = np.sort(np.asarray(grid, float))
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    if not K > 0.0:  # s_n = 2 K t must be > 0
        raise InvalidParameterError(f"perturbation constant K must be > 0, got {K}")
    _check_lipschitz(psi, grid, 1.0, "psi")
    _check_lipschitz(f, grid, 1.0 - delta, "f")
    t = s.at(grid)
    gap = (np.asarray(psi(grid), float) - np.asarray(f(grid), float))
    if np.max(gap / t) < K:
        raise NoViolationError("psi - f stays below K t_n everywhere on the grid")
    x_star = float(grid[np.argmax(gap / t)])
    shifted = gap - (delta / 2.0) * np.abs(grid - x_star)
    x_tilde = float(grid[np.argmax(shifted)])
    t_tilde = s.at(x_tilde)
    t_star = s.at(x_star)
    s_n = min(2.0 * K * t_tilde, 2.0 * K * t_star + (delta / 2.0) * abs(x_star - x_tilde))

    pert = Perturbation(x_star=x_star, x_tilde=x_tilde, s_n=float(s_n),
                        x_ell=0.0, x_u=1.0, delta=float(delta), _psi=psi, _f=f)
    diff = lambda x: float(pert.h(x) - psi(x))  # noqa: E731  (>= 0 outside the support)
    j = int(np.searchsorted(grid, x_tilde))
    # walk left for the nearest grid point where h meets psi again, then refine
    x_ell = 0.0
    for i in range(j, -1, -1):
        if diff(grid[i]) >= 0.0:
            x_ell = _refine_crossing(diff, grid[i], grid[min(i + 1, grid.size - 1)])
            break
    x_u = 1.0
    for i in range(j, grid.size):
        if diff(grid[i]) >= 0.0:
            x_u = _refine_crossing(diff, grid[i], grid[max(i - 1, 0)])
            break
    return replace(pert, x_ell=float(x_ell), x_u=float(x_u))


@dataclass(frozen=True)
class LipschitzCover:
    """Candidate centers covering {u in Lip(1): supp(u) in [a, b]} at radius r.

    Every center is 0 on the first cell of width r and moves with slope +1,
    -1, or 0 on each later cell; values are tabulated at the cell nodes.
    """

    a: float
    b: float
    r: float
    nodes: np.ndarray
    values: np.ndarray  # (count, nodes) table

    def __len__(self):
        return self.values.shape[0]

    def evaluate(self, i: int, x):
        x = np.asarray(x, float)
        out = np.interp(x, self.nodes, self.values[i])
        return np.where((x < self.a) | (x > self.b), 0.0, out)


def lipschitz_cover(a: float, b: float, r: float) -> LipschitzCover:
    if a >= b:
        raise InvalidParameterError(f"need a < b, got [{a}, {b}]")
    if r <= 0.0:
        raise InvalidParameterError(f"radius must be positive, got {r}")
    k = int(np.floor((b - a) / r))
    if k > 12:
        raise SizeCapError(f"cover would need up to 3^{k} centers; cap is 3^12")
    nodes = np.concatenate([np.arange(a, b, r), [b]])
    cells = nodes.size - 1  # first cell is pinned to 0
    if cells <= 1:
        values = np.zeros((1, nodes.size))
        return LipschitzCover(a, b, r, nodes, values)
    widths = np.diff(nodes)[1:]
    choices = np.stack(np.meshgrid(*([[-1.0, 0.0, 1.0]] * (cells - 1)), indexing="ij"),
                       axis=-1).reshape(-1, cells - 1)
    steps = choices * widths
    values = np.zeros((choices.shape[0], nodes.size))
    values[:, 2:] = np.cumsum(steps, axis=1)
    return LipschitzCover(a, b, r, nodes, values)


def cover_center_for(g, cover: LipschitzCover) -> np.ndarray:
    """Pick the covering center for g by the per-cell band rule.

    On each cell after the first, move up if g escapes the +r band around
    the current level somewhere in the cell, down if it escapes the -r band,
    and stay level otherwise, probing g at 65 equispaced points of each
    cell.  For g in Lip(1) vanishing outside [a, b] the produced center is
    within r of g in sup-norm.  Returns node values.
    """
    nodes, r = cover.nodes, cover.r
    vals = np.zeros(nodes.size)
    for i in range(1, nodes.size - 1):
        probes = np.linspace(nodes[i], nodes[i + 1], 65)
        gp = np.asarray(g(probes), float)
        width = nodes[i + 1] - nodes[i]
        if np.any(gp - vals[i] > r):
            vals[i + 1] = vals[i] + width
        elif np.any(gp - vals[i] < -r):
            vals[i + 1] = vals[i] - width
        else:
            vals[i + 1] = vals[i]
    return vals


def kl_divergence(f, g, P: DesignDistribution, Q: DesignDistribution,
                  n: int, m: int) -> float:
    """(n/2) int (f-g)^2 p + (m/2) int (f-g)^2 q, standard normal noise.

    Both integrals are taken by the composite Simpson rule on 4097
    equispaced nodes of [0, 1]."""
    if not (_is_int(n) and _is_int(m) and n >= 0 and m >= 0):
        raise InvalidParameterError(f"sample sizes must be integers >= 0, got n={n!r}, m={m!r}")
    xs = np.linspace(0.0, 1.0, 4097)
    sq = (np.asarray(f(xs), float) - np.asarray(g(xs), float)) ** 2
    out = 0.0
    if n:
        out += 0.5 * n * _simpson(sq * P.density(xs), xs)
    if m:
        out += 0.5 * m * _simpson(sq * Q.density(xs), xs)
    return out


@dataclass(frozen=True)
class HypothesisFamily:
    """Disjoint tent bumps f_j(x) = (height_j - |x - center_j|)_+ plus f_0 = 0."""

    centers: np.ndarray
    heights: np.ndarray
    psi_n: float

    @property
    def count(self):
        return self.centers.size

    def f(self, j: int, x):
        """Hypothesis j; j = 0 is the zero function."""
        x = np.asarray(x, float)
        if j == 0:
            return np.zeros_like(x)
        c, h = self.centers[j - 1], self.heights[j - 1]
        return np.maximum(h - np.abs(x - c), 0.0)


def build_lower_bound_family(P: DesignDistribution, Q: DesignDistribution,
                             n: int, m: int) -> HypothesisFamily:
    """Bump hypotheses on the intervals where the pooled design carries mass.

    Splits [0, 1] into cells of width 2 psi_N with psi_N = (log N/N)^(1/3),
    keeps cells of mixture mass >= psi_N, and puts a tent of height
    t_{n,m}(center)/6 on each kept cell, where t_{n,m} is the smaller of the
    two spread functions.
    """
    _check_sizes("family", 2, n, m)
    N = n + m
    psi = (np.log(N) / N) ** (1.0 / 3.0)
    if psi > 0.25:
        raise InvalidParameterError(f"scale psi_N = {psi:.3f} > 1/4; increase n + m")
    M = int(np.ceil(1.0 / (2.0 * psi)))
    k = np.arange(1, M + 1)
    centers = (2.0 * k - 1.0) * psi
    mixed = mixture(P, Q, n / N)
    masses = interval_mass(mixed, centers - psi, np.minimum(centers + psi, 1.0))
    # some cell is kept: the M cells cover [0, 1], so one has mass >= 1/M, and
    # M < 1/psi - 1 since psi <= 1/4, so 1/M > psi
    centers = centers[masses >= psi]
    t_nm = np.minimum(SpreadFunction(P, n).at(centers), SpreadFunction(Q, m).at(centers))
    return HypothesisFamily(centers=centers, heights=t_nm / 6.0, psi_n=float(psi))


def transfer_exponent_check(P: DesignDistribution, Q: DesignDistribution,
                            gamma: float, eta_grid, x_grid) -> float:
    """max over eta of eta^gamma int q(x) / P([x +- eta]) dx.

    A value that stays bounded as the eta grid refines toward 0 indicates
    transfer exponent at most gamma for the pair (P, Q).
    """
    eta_grid = np.asarray(eta_grid, float)
    x_grid = np.asarray(x_grid, float)
    if eta_grid.size == 0 or x_grid.size == 0:
        raise InvalidParameterError("grids must be nonempty")
    if not np.all((eta_grid > 0.0) & (eta_grid < np.inf)):  # NaN fails too
        raise InvalidParameterError(f"eta_grid radii must be finite and > 0, got {eta_grid}")
    q = Q.density(x_grid)
    best = -np.inf
    for eta in eta_grid:
        mass = interval_mass(P, x_grid - eta, x_grid + eta)
        if np.any(mass <= 0.0):
            raise NonDoublingError(f"zero interval mass at radius {eta}")
        best = max(best, eta**gamma * float(np.trapezoid(q / mass, x_grid)))
    return best


def perturbation_faults(pert: Perturbation, grid) -> list:
    """The names of the properties of pert that fail on grid.

    g is psi off the support [x_ell, x_u] and between f and psi on it; the
    support reaches s_n/4 either side of x~ (within [0, 1]) and no further
    than s_n/delta; psi - g >= s_n/4 within s_n/8 of x~; g is 1-Lipschitz.
    """
    grid = np.asarray(grid, float)
    psi, f, g = pert._psi(grid), pert._f(grid), pert.g(grid)
    inside = (grid >= pert.x_ell) & (grid <= pert.x_u)
    sn, xt = pert.s_n, pert.x_tilde
    reach = sn / pert.delta
    inner = (grid >= max(xt - sn / 8, 0.0)) & (grid <= min(xt + sn / 8, 1.0))
    holds = {
        "g = psi off the support": np.array_equal(g[~inside], psi[~inside]),
        "g <= psi": np.all(g[inside] <= psi[inside] + 1e-9),
        "g >= f": np.all(g[inside] >= f[inside] - 1e-9),
        "x_ell >= x~ - s_n/delta": xt - reach - 1e-9 <= pert.x_ell,
        "x_ell <= x~ - s_n/4": pert.x_ell <= max(xt - sn / 4.0, 0.0) + 1e-9,
        "x_u >= x~ + s_n/4": min(xt + sn / 4.0, 1.0) - 1e-9 <= pert.x_u,
        "x_u <= x~ + s_n/delta": pert.x_u <= xt + reach + 1e-9,
        "psi - g >= s_n/4 near x~": np.all(psi[inner] - g[inner] >= sn / 4.0 - 1e-9),
        "g 1-Lipschitz": np.max(np.abs(np.diff(g)) / np.diff(grid)) <= 1.0 + 1e-6,
    }
    return [name for name, ok in holds.items() if not ok]


def _tent(center, height):
    return lambda x: np.maximum(height - np.abs(np.asarray(x, float) - center), 0.0)


def _zero(x):
    return np.zeros_like(np.asarray(x, float))


def _perturbation(distribution, n, K, delta, grid, center):
    s = SpreadFunction(from_spec(distribution), n)
    grid = np.linspace(0.0, 1.0, grid)
    pert = build_perturbation(_tent(center, 2.0 * K * s.at(center)), _zero, delta, s, K, grid)
    failed = perturbation_faults(pert, grid)
    return not failed, {"x_star": pert.x_star, "x_tilde": pert.x_tilde, "s_n": pert.s_n,
                        "x_ell": pert.x_ell, "x_u": pert.x_u, "failed": failed}


def _random_lipschitz(rng, a, b):
    """A random 1-Lipschitz function, linear between 21 knots on [a, b], zero
    at a and b and outside [a, b]."""
    knots = np.linspace(a, b, 21)
    vals = np.concatenate([[0.0], np.cumsum(rng.uniform(-1.0, 1.0, 20) * np.diff(knots))])
    vals -= np.linspace(0.0, vals[-1], 21)  # pin both ends at 0
    vals /= max(1.0, np.max(np.abs(np.diff(vals)) / np.diff(knots)))

    def g(x):
        x = np.asarray(x, float)
        return np.where((x < a) | (x > b), 0.0, np.interp(x, knots, vals))
    return g


def _cover(a, b, r):
    cover = lipschitz_cover(a, b, r)
    rng = np.random.default_rng(3)
    xs = np.linspace(a, b, 1001)
    within = members = 0
    for _ in range(200):
        g = _random_lipschitz(rng, a, b)
        center = cover_center_for(g, cover)
        within += bool(np.max(np.abs(g(xs) - np.interp(xs, cover.nodes, center))) <= r + 1e-9)
        members += bool(np.any(np.all(np.isclose(cover.values, center, atol=1e-12), axis=1)))
    return within == members == 200, {"centers": len(cover), "cap": 3 ** int((b - a) / r),
                                      "within_r": within, "members": members}


def _kl(P, Q, bump_height, bump_center, n, m):
    P, Q = from_spec(P), from_spec(Q)
    kl = kl_divergence(_tent(bump_center, bump_height), _zero, P, Q, n, m)
    # the tent's square integrates to at most 2 h^3 / 3; the slack is Simpson's
    # error, which stays below it for half-widths of at least 0.01, the key's range
    bound = (n * P.sup_density + m * Q.sup_density) * bump_height**3 / 3.0
    return 0.0 <= kl <= bound * (1.0 + 1e-3), {"kl": kl, "kl_bound": bound}


def _lowerbound(P, Q, n, m):
    P, Q = from_spec(P), from_spec(Q)
    fam = build_lower_bound_family(P, Q, n, m)
    mean_kl = float(np.mean([kl_divergence(lambda x, j=j: fam.f(j, x), _zero, P, Q, n, m)
                             for j in range(1, fam.count + 1)]))
    budget = float(np.log(n + m) / 36.0)
    return mean_kl <= budget + 1e-9, {"count": fam.count, "psi_N": fam.psi_n,
                                      "mean_kl": mean_kl, "kl_budget": budget}


def _transfer_exponent(P, Q, gamma, eta_grid, x_nodes):
    P, Q = from_spec(P), from_spec(Q)
    xs = np.linspace(0.0, 1.0, x_nodes)
    values = [float(transfer_exponent_check(P, Q, gamma, [eta], xs)) for eta in eta_grid]
    ratio = values[int(np.argmin(eta_grid))] / values[int(np.argmax(eta_grid))]
    return ratio <= 3.0, {"max_eta_gamma_rho": max(values), "ratio": ratio, "values": values}


# check -> (its claim, its config keys with their defaults, and the ranges of
# node counts and of the tent height where Simpson's error fits the 0.1 % slack)
_CHECKS = {
    "perturbation": (_perturbation, {"distribution": {"kind": "uniform"}, "n": 100, "K": 1.0,
                                     "delta": 0.5, "grid": (2001, "[2, inf)"), "center": 0.5}),
    "cover": (_cover, {"a": 0.0, "b": 1.0, "r": 0.2}),
    "kl": (_kl, {"P": {"kind": "uniform"}, "Q": {"kind": "uniform"},
                 "bump_height": (0.1, "[0.01, inf)"), "bump_center": 0.5, "n": 100, "m": 0}),
    "lowerbound": (_lowerbound, {"P": {"kind": "uniform"}, "Q": {"kind": "uniform"},
                                 "n": 5000, "m": 5000}),
    "transfer-exponent": (_transfer_exponent,
                          {"P": {"kind": "power", "alpha": 1.0}, "Q": {"kind": "uniform"},
                           "gamma": 1.0, "eta_grid": [2.0 ** -k for k in range(3, 11)],
                           "x_nodes": (1025, "[2, inf)")}),
}


def run_check(check: str, obj) -> tuple:
    """(passed, measured quantities) of the claim `_CHECKS` names check,
    with the keys of the JSON object obj over the check's defaults."""
    claim, keys = _CHECKS[check]
    return claim(**_read(obj, keys, f"prooflab check {check!r}", ConfigError))
