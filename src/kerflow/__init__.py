"""kerflow: a finite-rank verification lab for kernel Hilbert spaces,
Lie-derivative operators, and reflection-positive quotients.

Local flows and brackets live in ``flows``; symmetric Lie algebras and their
duals in ``algebra``; kernels, Gram models, and whitening in ``kernels``;
derivative-form compressions and spectral calculus in ``operators``; the
representation synthesis in ``representation``; smeared distribution kernels
and quotient semigroups in ``distributions``; the batch harness in ``config``,
``runner``, and ``cli``.
"""

from . import algebra, config, distributions, flows, kernels, operators
from . import representation, runner
from .errors import (ClassificationError, CompatibilityError, ConfigError,
                     DegenerateQuotientError, EmptyModelError, FlowDomainError,
                     GridError, KerflowError, KernelDomainError,
                     NotHermitianError, PositivityError)

__version__ = "0.1.0"
