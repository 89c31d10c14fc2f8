"""Effective conductivity of periodic media with degenerate phases.

Subpackages:

* ``linalg``     input validators for small symmetric matrices and vectors
* ``laminate``   explicit rank-one laminate formula, structure conditions and
                 the kernel identity from one eigh of the two phases' stack;
                 each side is one SVD of the phases' range rows with a unit
                 vector projected out
* ``cell``       regularized periodic cell problems and delta extrapolation
* ``anomalous``  the two-dimensional anomalous limit: spectral and
                 convolution forms, two-scale profiles, recovery energies
* ``cli``        the ``homoglab`` command-line front end (imported on first use)
"""

import importlib

from . import anomalous, cell, laminate, linalg
from .errors import (ConvergenceError, CrossValidationError, HomoglabError,
                     NumericalError, ValidationError)

__all__ = [
    "anomalous", "cell", "cli", "laminate", "linalg",
    "ConvergenceError", "CrossValidationError", "HomoglabError",
    "NumericalError", "ValidationError",
]

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m homoglab.cli`` does not find
    # it already imported by the package.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
