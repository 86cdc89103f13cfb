"""Gaussian wild bootstrap for sup-norms of matrix U-statistics.

Core pipeline: order-two matrix kernels (covariance, Kendall sign product),
Hoeffding decomposition utilities, the decoupled Hajek-projection estimator,
multiplier-bootstrap quantiles, and the statistical applications built on
them (sup-norm tests, adaptive covariance thresholding, CLIME / Dantzig
tuning-parameter selection).
"""

__version__ = "0.1.0"

from . import bootstrap, distributions, estimators, inference, kernels, matstat, ustat
from .bootstrap import *
from .distributions import *
from .estimators import *
from .inference import *
from .kernels import *
from .matstat import *
from .ustat import *

# each module's ``__all__`` is its public API; the package exports all of them
_MODULES = (bootstrap, distributions, estimators, inference, kernels, matstat, ustat)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
