"""kerflow: a finite-rank verification lab for kernel Hilbert spaces,
Lie-derivative operators, and reflection-positive quotients.

Local flows and brackets live in ``flows``; symmetric Lie algebras and their
duals in ``algebra``; kernels, Gram models, and whitening in ``kernels``;
derivative-form compressions and spectral calculus in ``operators``; the
representation synthesis in ``representation``; smeared distribution kernels
and quotient semigroups in ``distributions``; the batch harness in ``config``,
``runner``, and ``cli``.

Each submodule loads on first access (``kerflow.flows``, ``from kerflow
import runner``), so that ``import kerflow`` loads neither them nor numpy.
"""

import importlib

from .errors import (ClassificationError, CompatibilityError, ConfigError,
                     DegenerateQuotientError, EmptyModelError, FlowDomainError,
                     GridError, KerflowError, KernelDomainError,
                     NotHermitianError, PositivityError)

__version__ = "0.1.0"

_SUBMODULES = ("algebra", "cli", "config", "distributions", "flows", "kernels",
               "operators", "representation", "runner")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
