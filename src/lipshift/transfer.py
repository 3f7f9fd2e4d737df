"""Covariate-shift transfer estimation.

Two regression samples share one regression function: a large source sample
with design P and a smaller target sample with design Q.  The combined
estimator fits a Lipschitz LSE on each sample and, at every x, keeps the fit
whose estimated local rate (empirical spread) is smaller.  Also provides the
mixture-spread comparison and the quadrature risk functionals used to bound
the target risk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .densities import DesignDistribution, _check_sizes, _simpson, interval_mass, mixture
from .errors import InvalidInputError
from .lipfit import LipschitzFit, RegressionSample, fit_lipschitz_lse
from .spread import EmpiricalSpread, SpreadFunction

__all__ = [
    "TransferFit",
    "fit_transfer",
    "mixture_spread",
    "transfer_risk_integrals",
]


@dataclass(frozen=True)
class TransferFit:
    fit1: LipschitzFit  # source LSE
    fit2: LipschitzFit  # target LSE
    spread1: EmpiricalSpread
    spread2: EmpiricalSpread

    @staticmethod
    def _choose(t1, t2):
        """1 where the source spread t1 is <= the target spread t2, else 2."""
        return np.where(t1 <= t2, 1, 2)

    def selector(self, x):
        """1 where the source spread is <= the target spread, else 2."""
        return self._choose(self.spread1.at(x), self.spread2.at(x))

    def evaluate(self, x):
        x = np.asarray(x, float)
        return np.where(self.selector(x) == 1, self.fit1.evaluate(x), self.fit2.evaluate(x))


def fit_transfer(source: RegressionSample, target: RegressionSample,
                 budget: float) -> TransferFit:
    """Fit both LSEs and the pointwise smallest-estimated-rate selector.

    The empirical spreads use the design points only (no responses), each
    with its own sample-size threshold.
    """
    if source.n < 2 or target.n < 2:
        raise InvalidInputError("both samples need at least 2 points")
    return TransferFit(
        fit1=fit_lipschitz_lse(source, budget),
        fit2=fit_lipschitz_lse(target, budget),
        spread1=EmpiricalSpread(source.x),
        spread2=EmpiricalSpread(target.x),
    )


def mixture_spread(P: DesignDistribution, Q: DesignDistribution, n: int, m: int, x):
    """Spread of the pooled design (n P + m Q)/(n + m) at sample size n + m.

    The pooled design and its `SpreadFunction` are built once per (P, Q, n,
    m), designs compared by identity, and serve later calls with the same
    arguments; each call solves for its own x."""
    _check_sizes("mixture spread", 2, n, m)
    return _pooled_spread(P, Q, n, m).at(x)


@functools.lru_cache(maxsize=16)
def _pooled_spread(P, Q, n, m):
    """`SpreadFunction` of the pooled design of `mixture_spread`.  Its size is
    a Python integer: two numpy sizes of mixed signedness sum to a float."""
    return SpreadFunction(mixture(P, Q, n / (n + m)), int(n) + int(m))


def transfer_risk_integrals(P: DesignDistribution, Q: DesignDistribution, n: int):
    """Quadrature values of the three target-risk functionals.

    With t = t_n^P and intervals clipped to [0, 1]:

        I1 = int t(x)^2 q(x) dx                       (target-weighted rate)
        I2 = (log n/n) int Q([x +- t]) / (t P([x +- t])) dx
        I3 = 2^{1/3} (log n/n)^{2/3} sup(p)^{1/3} int Q([x +- t]) / P([x +- t]) dx

    I2 and I3 are the two alternative upper-bound forms for I1 (up to
    constants); I3 trades the spread in the denominator for the sup of the
    source density.  Each integral is taken by the composite Simpson rule on
    2049 equispaced nodes of [0, 1].
    """
    xs = np.linspace(0.0, 1.0, 2049)
    t = SpreadFunction(P, n).at(xs)
    ln = np.log(n) / n
    q = Q.density(xs)
    mass_p = interval_mass(P, xs - t, xs + t)
    mass_q = interval_mass(Q, xs - t, xs + t)
    i1 = _simpson(t**2 * q, xs)
    i2 = float(ln * _simpson(mass_q / (t * mass_p), xs))
    i3 = float(2.0 ** (1.0 / 3.0) * ln ** (2.0 / 3.0) * P.sup_density ** (1.0 / 3.0)
               * _simpson(mass_q / mass_p, xs))
    return i1, i2, i3
