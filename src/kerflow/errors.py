"""Exception hierarchy shared across the package."""


class KerflowError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(KerflowError):
    """Invalid experiment configuration; carries the JSON path of the offender."""

    def __init__(self, json_path: str, message: str):
        self.json_path = json_path
        super().__init__(f"{json_path}: {message}")


class FlowDomainError(KerflowError):
    """A flow or integral curve left its chart (or never started inside it)."""


class KernelDomainError(KerflowError):
    """Kernel, derivative or Gram value outside its domain, or not finite."""


class NotHermitianError(KerflowError):
    """Gram assembly found an asymmetry beyond the allowed threshold."""


class EmptyModelError(KerflowError):
    """Every eigenvalue fell below the rank cutoff; no usable model remains."""


class ClassificationError(KerflowError):
    """A compressed operator violates its declared symmetry class."""


class CompatibilityError(KerflowError):
    """A kernel/action pair fails the compatibility identity for a basis element."""


class PositivityError(KerflowError):
    """A kernel that must be positive definite is not, beyond tolerance."""


class DegenerateQuotientError(KerflowError):
    """The twisted Gram has numerical rank zero; the quotient space is trivial."""


class GridError(KerflowError):
    """Test-function grid violation (margin, alignment, or symmetry)."""
