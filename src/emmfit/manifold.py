"""Product-manifold operations for mixture parameters.

The square roots of the weights live on the unit sphere, locations in
Euclidean space, and scatter matrices on the positive definite manifold
whose metric is the Hessian of the elliptical Wasserstein distance.  All
tangent algebra for the scatter matrices runs through the Lyapunov
operator L_A[C] = B with AB + BA = C, evaluated in the eigenbasis that a
``PdPoint`` keeps.  Scatter operations take one (m, m) matrix or a
(k, m, m) stack; the retraction ``exp_sigma`` owns the trust region.  The
constant metric weight E[R^2]/m is omitted throughout; it only rescales
the stepsize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import above_pd_floor, check_spd

# Halvings of a scatter step tried before the scatter is left where it was.
PD_RETRIES = 20
# Relative trust cap on scatter steps: the Lyapunov image L of the step is
# rescaled so that its largest |eigenvalue| is at most TRUST_CAP, whether
# the step expands or contracts.  The exact retraction distorts near
# |L| = 1, and single-projection noise on thin components produces raw
# steps far beyond it.
TRUST_CAP = 0.3


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
    """Positive definite matrix or (k, m, m) stack, sigma = q diag(lam) q^T.

    ``PdPoint(sigma)`` validates with ``check_spd`` and runs one ``eigh``;
    ``exp_sigma`` passes in the lam and q of the eigh that admitted it."""

    sigma: np.ndarray
    lam: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.lam is None:
            sigma = check_spd(self.sigma)
            lam, q = np.linalg.eigh(sigma)
            self.__dict__.update(sigma=sigma, lam=lam, q=q)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def lyapunov_solve(a: PdPoint | np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A B + B A = C for symmetric C and positive definite A (or stacks)."""
    if not isinstance(a, PdPoint):
        a = PdPoint(a)
    lam, q = a.lam, a.q
    qt = np.swapaxes(q, -1, -2)
    c_tilde = qt @ np.asarray(c, dtype=float) @ q
    b_tilde = c_tilde / (lam[..., :, None] + lam[..., None, :])
    return _sym(q @ b_tilde @ qt)


def riem_grad_sigma(sigma: PdPoint | np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Tangent gradient for a scatter matrix: egrad @ Sigma + Sigma @ egrad.

    This is the printed operation; the exact metric dual of the Lyapunov
    metric is twice this, a constant absorbed by the stepsize.
    """
    s = sigma.sigma if isinstance(sigma, PdPoint) else np.asarray(sigma, dtype=float)
    egrad = np.asarray(egrad, dtype=float)
    return egrad @ s + s @ egrad


def exp_sigma(sigma: PdPoint | np.ndarray, step: np.ndarray) -> tuple[PdPoint, int | np.ndarray]:
    """Retraction (L + I) Sigma (L + I), L = L_Sigma[step], of an already-scaled step.

    L is first scaled down to TRUST_CAP (see there; the quadratic is
    trustworthy only while |L| < 1).  One ``eigh`` of the images is both
    their PD-floor test and the decomposition the new point keeps.  An
    image below the floor is retried with L halved, at most PD_RETRIES
    times; a matrix that never passes keeps its input value.

    Returns (point, halvings): the halvings each matrix took, an int for
    one matrix and a (k,) array for a stack; PD_RETRIES + 1 marks a matrix
    left where it was.
    """
    point = sigma if isinstance(sigma, PdPoint) else PdPoint(sigma)
    shape, m = point.sigma.shape, point.sigma.shape[-1]
    lyap = lyapunov_solve(point, step).reshape(-1, m, m)
    top = np.abs(np.linalg.eigvalsh(lyap)[:, [0, -1]]).max(axis=1)
    # the factor is exactly 1.0 below the cap, and never divides by zero
    lyap *= (TRUST_CAP / np.maximum(top, TRUST_CAP))[:, None, None]
    base = point.sigma.reshape(-1, m, m)
    sig, lam, q = base.copy(), point.lam.reshape(-1, m).copy(), point.q.reshape(-1, m, m).copy()
    halvings = np.zeros(len(base), dtype=int)
    todo = np.arange(len(base))
    for _ in range(PD_RETRIES + 1):
        e = lyap[todo] + np.eye(m)
        cand = _sym(e @ base[todo] @ np.swapaxes(e, 1, 2))
        cand_lam, cand_q = np.linalg.eigh(cand)
        ok = above_pd_floor(cand_lam[:, 0], np.trace(cand, axis1=1, axis2=2), m)
        sig[todo[ok]], lam[todo[ok]], q[todo[ok]] = cand[ok], cand_lam[ok], cand_q[ok]
        todo = todo[~ok]
        if todo.size == 0:
            break
        halvings[todo] += 1
        lyap[todo] *= 0.5
    out = PdPoint(sig.reshape(shape), lam.reshape(shape[:-1]), q.reshape(shape))
    return out, (int(halvings[0]) if len(shape) == 2 else halvings)


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
