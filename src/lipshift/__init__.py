"""Local convergence-rate toolkit for Lipschitz least squares regression
and covariate-shift transfer on [0, 1]."""

from . import densities, harness, lipfit, prooflab, spread, transfer  # noqa: F401
from .densities import DesignDistribution  # noqa: F401
from .lipfit import LipschitzFit, RegressionSample  # noqa: F401
from .spread import EmpiricalSpread, SpreadFunction  # noqa: F401
from .transfer import TransferFit  # noqa: F401

__version__ = "0.1.0"
