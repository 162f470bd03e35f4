"""Shared exception types."""


class EmmfitError(Exception):
    """Base class for all library errors."""


class InvalidFamilyError(EmmfitError):
    """Family parameters violate their admissibility constraints."""


class SupportError(EmmfitError):
    """Argument lies outside the support of a density."""


class NotPositiveDefiniteError(EmmfitError):
    """A scatter matrix is not symmetric positive definite."""


class DensityUnavailableError(EmmfitError):
    """The family has no normalized density (alpha-stable likelihoods)."""


class UnsupportedGradientError(EmmfitError):
    """No sliced-cost gradient for this family: no 1-D projected kernel
    with an integrable primitive."""


class UndefinedSecondMomentError(EmmfitError):
    """E[R^2] does not exist and the caller did not opt into unit weights."""


class StepTooLargeError(EmmfitError):
    """A scatter step cannot be retracted: its Lyapunov image is not finite."""


class DegenerateGridError(EmmfitError):
    """Quadrature grid or projected density carries no usable mass."""


class GenerationError(EmmfitError):
    """Synthetic dataset construction failed after bounded retries."""


class MismatchError(EmmfitError):
    """Operands disagree in dimension, component count, or family."""
