"""Product-manifold operations for mixture parameters.

The square roots of the weights live on the unit sphere, locations in
Euclidean space, and scatter matrices on the positive definite manifold
whose metric is the Hessian of the elliptical Wasserstein distance.  All
tangent algebra for the scatter matrices runs through the Lyapunov
operator L_A[C] = B with AB + BA = C, evaluated in the eigenbasis of A.
The constant metric weight E[R^2]/m is omitted throughout; it only
rescales the stepsize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotPositiveDefiniteError, StepTooLargeError
from .families import check_spd


@dataclass(frozen=True)
class SpherePoint:
    """Unit-norm vector of weight square roots."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        if abs(np.linalg.norm(s) - 1.0) > 1e-12:
            raise ValueError("sphere point must have unit norm")
        object.__setattr__(self, "s", s)

    @property
    def weights(self) -> np.ndarray:
        return self.s * self.s


def sphere_from_weights(pi) -> SpherePoint:
    pi = np.asarray(pi, dtype=float)
    s = np.sqrt(np.maximum(pi, 0.0))
    return SpherePoint(s / np.linalg.norm(s))


@dataclass(frozen=True)
class PdPoint:
    """Positive definite scatter matrix with a cached eigendecomposition."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_spd(self.sigma))

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        lam, q = np.linalg.eigh(self.sigma)
        return lam, q

    @property
    def m(self) -> int:
        return self.sigma.shape[0]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def lyapunov_solve(a: PdPoint | np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A B + B A = C for symmetric C and positive definite A."""
    if not isinstance(a, PdPoint):
        a = PdPoint(a)
    lam, q = a.eig
    c_tilde = q.T @ np.asarray(c, dtype=float) @ q
    b_tilde = c_tilde / (lam[:, None] + lam[None, :])
    return _sym(q @ b_tilde @ q.T)


def riem_grad_sigma(sigma: PdPoint | np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Tangent gradient for a scatter matrix: egrad @ Sigma + Sigma @ egrad.

    This is the printed operation; the exact metric dual of the Lyapunov
    metric is twice this, a constant absorbed by the stepsize.
    """
    s = sigma.sigma if isinstance(sigma, PdPoint) else np.asarray(sigma, dtype=float)
    egrad = np.asarray(egrad, dtype=float)
    return egrad @ s + s @ egrad


def exp_sigma(sigma: PdPoint | np.ndarray, step: np.ndarray) -> PdPoint:
    """Retraction (L[step] + I) Sigma (L[step] + I) for an already-scaled step.

    Raises StepTooLargeError when the result leaves the PD cone; callers
    halve the step and retry.
    """
    if not isinstance(sigma, PdPoint):
        sigma = PdPoint(sigma)
    lyap = lyapunov_solve(sigma, step)
    # The retraction is a quadratic, trustworthy only while |L|_2 < 1: an
    # L eigenvalue of -1 sends the factor L + I through singularity (the
    # image wraps back into the cone on a non-geodesic branch), and
    # magnitudes beyond one distort just as badly on the expanding side.
    if float(np.abs(np.linalg.eigvalsh(lyap))[-1]) >= 1.0 - 1e-12:
        raise StepTooLargeError("retraction step leaves the trust region |L| < 1")
    e = lyap + np.eye(sigma.m)
    out = _sym(e @ sigma.sigma @ e.T)
    try:
        return PdPoint(out)
    except NotPositiveDefiniteError as exc:
        raise StepTooLargeError(str(exc)) from exc


def exp_sphere(s: SpherePoint | np.ndarray, tangent: np.ndarray) -> SpherePoint:
    """Great-circle step cos(|t|) s - sin(|t|) t/|t| (descends along +t)."""
    vec = s.s if isinstance(s, SpherePoint) else np.asarray(s, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    norm = float(np.linalg.norm(tangent))
    if norm < 1e-300:
        return SpherePoint(vec.copy())
    out = np.cos(norm) * vec - (np.sin(norm) / norm) * tangent
    return SpherePoint(out / np.linalg.norm(out))


def project_sphere_grad(s: SpherePoint | np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the sphere tangent space at s."""
    vec = s.s if isinstance(s, SpherePoint) else np.asarray(s, dtype=float)
    egrad = np.asarray(egrad, dtype=float)
    return egrad - float(vec @ egrad) * vec


def transport_sigma(from_point: PdPoint | np.ndarray, to_sigma, u: np.ndarray) -> np.ndarray:
    """Vector transport L_from[u] @ to + to @ L_from[u] between PD points."""
    to = to_sigma.sigma if isinstance(to_sigma, PdPoint) else np.asarray(to_sigma, dtype=float)
    b = lyapunov_solve(from_point, u)
    return _sym(b @ to + to @ b)
