"""Shared exception types, and the one rule for every number a caller passes in."""

import math
from numbers import Integral, Real


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
    """A sampling or synthetic dataset argument is refused, or construction failed after bounded retries."""


class MismatchError(EmmfitError):
    """Operands disagree in dimension, component count, or family."""


def _integer(value, name: str, error: type[EmmfitError], lo: int = 0) -> int:
    """value, numpy's too, as an int; a bool, a non-integer or one below lo raises error."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise error(f"{name} must be an integer of at least {lo}, got {value!r}")
    return int(value)


def _real(value, name: str, error: type[EmmfitError], lo: float = -math.inf) -> float:
    """value, numpy's too, as a float; a bool, a non-number, a non-finite one or one below lo raises error."""
    if isinstance(value, bool) or not (isinstance(value, Real) and lo <= value and abs(value) < math.inf):
        at_least = f" of at least {lo}" if lo > -math.inf else ""
        raise error(f"{name} must be a finite number{at_least}, got {value!r}")
    return float(value)
