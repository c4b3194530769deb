"""Proximal sampling with exact Fisher-information accounting.

Closed-form isotropic-Gaussian channel arithmetic, a 1-D quadrature
engine for smoothed densities, the proximal sampler with a
rejection-sampling backward step, and the finite-dimensional
optimization analogues, all wired to a certifying CLI.  The package
re-exports the public names of those five modules.
"""

from .gaussian import *  # noqa: F401,F403
from .potentials import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .optim import *  # noqa: F401,F403
from . import gaussian, optim, potentials, quadrature, sampler

__all__ = [*gaussian.__all__, *potentials.__all__, *quadrature.__all__, *sampler.__all__,
           *optim.__all__]

__version__ = "0.1.0"
