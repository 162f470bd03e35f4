"""Shared exception types, and the one rule for every number a caller passes in."""

import math
import sys
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
    """A sampling or synthetic dataset argument is refused, or a synthetic draw cannot be used."""


class MismatchError(EmmfitError):
    """Operands disagree in dimension, component count, or family."""


def _integer(value, name: str, error: type[EmmfitError], lo: int = 0) -> int:
    """value, numpy's too, as an int; a bool, a non-integer, one below lo or one past the float range,
    which every check that divides it as a float would overflow on, raises error."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= sys.float_info.max:
        raise error(f"{name} must be an integer of at least {lo}, got {_shown(value)}")
    return int(value)


def _real(value, name: str, error: type[EmmfitError], lo: float = -math.inf) -> float:
    """value, numpy's too, as a float; a bool, a non-number, a non-finite one, an int past the
    float range or one below lo raises error."""
    try:
        number = math.nan if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:  # an int past the float range
        number = math.nan
    if not (lo <= number and abs(number) < math.inf):
        at_least = f" of at least {lo}" if lo > -math.inf else ""
        raise error(f"{name} must be a finite number{at_least}, got {_shown(value)}")
    return number


def _shown(value) -> str:
    """repr(value), but an int past the float range, whose digits may be too many to print, in words."""
    past = isinstance(value, Integral) and abs(value) > sys.float_info.max
    return "a number past the float range" if past else repr(value)
