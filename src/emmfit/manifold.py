"""Product-manifold operations for mixture parameters.

The square roots of the weights live on the unit sphere, locations in
Euclidean space, and scatter matrices on the positive definite manifold
whose metric is the Hessian of the elliptical Wasserstein distance.  Its
tangent algebra runs through the Lyapunov operator L_A[C] = B with
AB + BA = C.  The retraction ``exp_sigma`` takes a step as its Lyapunov
image L = L_Sigma[step], so a caller that keeps its tangent vectors in
these coordinates needs no solve: the image of the Riemannian gradient
``riem_grad_sigma`` is the Euclidean gradient itself, and vector transport
``transport_sigma`` leaves the image unchanged.  Every fit step keeps its
tangent vectors so, and none calls ``lyapunov_solve``, ``riem_grad_sigma``
or ``transport_sigma``: they map ambient tangent vectors to and between
points, in the eigenbasis that a ``PdPoint`` computes on first use, and
are the ambient algebra the fit steps are tested against.  Scatter
operations take one (m, m) matrix or a (k, m, m) stack; the retraction
owns the trust region.  The constant metric weight E[R^2]/m is omitted
throughout; it only rescales the stepsize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StepTooLargeError
from .families import above_pd_floor, check_spd

# Halvings of a scatter step tried before the scatter is left where it was.
PD_RETRIES = 20
# Relative trust cap on scatter steps: the Lyapunov image L of the step is
# rescaled so that its largest |eigenvalue| is at most TRUST_CAP, whether
# the step expands or contracts.  The exact retraction distorts near
# |L| = 1, and single-projection noise on thin components produces raw
# steps far beyond it.
TRUST_CAP = 0.3
# Every |eigenvalue| of L is at most its Frobenius norm, so an image whose
# norm is at most this (the cap less a margin for rounding in either
# norm) is below the cap and needs no eigenvalues.
CAP_PRETEST = (1.0 - 1e-6) * TRUST_CAP


@dataclass(frozen=True)
class SpherePoint:
    """Unit-norm vector of weight square roots."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        # compared so that a NaN norm fails
        if not abs(np.linalg.norm(s) - 1.0) <= 1e-12:
            raise ValueError("sphere point must have unit norm")
        object.__setattr__(self, "s", s)

    @classmethod
    def _trusted(cls, s: np.ndarray) -> "SpherePoint":
        """A point from a float vector just divided by its own norm,
        unchecked: the check would re-read that division."""
        point = object.__new__(cls)
        point.__dict__["s"] = s
        return point

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

    ``PdPoint(sigma)`` validates with ``check_spd``; ``exp_sigma`` builds
    its result with ``_admitted`` from the ascending eigenvalues lam that
    admitted it.  Either way a PdPoint is an admitted point:
    ``MixtureModel`` takes one in place of a scatter stack without deciding
    positive definiteness again.  lam (``eigvalsh``) and the traces
    (``trace``) are computed on first use where they were not handed over,
    the eigenbasis q (``eigh``) on first use; each is kept."""

    sigma: np.ndarray

    def __post_init__(self):
        self.__dict__["sigma"] = check_spd(self.sigma)

    @classmethod
    def _admitted(cls, sigma, lam, trace=None) -> "PdPoint":
        """A point from the eigenvalues lam (and traces, if known) that
        admitted sigma, unchecked."""
        point = object.__new__(cls)
        point.__dict__.update(sigma=sigma, lam=lam)
        if trace is not None:
            point.__dict__["trace"] = trace
        return point

    @cached_property
    def lam(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.sigma)

    @cached_property
    def trace(self) -> np.ndarray:
        """tr(sigma), one per matrix of a stack."""
        return self.sigma.trace(axis1=-2, axis2=-1)

    @cached_property
    def q(self) -> np.ndarray:
        return np.linalg.eigh(self.sigma)[1]


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def lyapunov_solve(a: PdPoint | np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A B + B A = C for symmetric C and positive definite A (or
    stacks), in the eigenbasis of A, which a ``PdPoint`` takes on first use.
    No fit step calls it: the steps are taken as Lyapunov images."""
    if not isinstance(a, PdPoint):
        a = PdPoint(a)
    lam, q = a.lam, a.q
    qt = np.swapaxes(q, -1, -2)
    c_tilde = qt @ np.asarray(c, dtype=float) @ q
    b_tilde = c_tilde / (lam[..., :, None] + lam[..., None, :])
    return _sym(q @ b_tilde @ qt)


def riem_grad_sigma(sigma: PdPoint | np.ndarray, w, p: np.ndarray) -> np.ndarray:
    """Tangent gradient egrad @ Sigma + Sigma @ egrad of the rank-one scatter
    gradient egrad = w p p': w (p a' + a p') with a = Sigma p.

    Takes one matrix and a scalar w, or a (k, m, m) stack and a (k,) w.
    This is the printed operation; the exact metric dual of the Lyapunov
    metric is twice this, a constant absorbed by the stepsize.  No fit step
    calls it: its Lyapunov image is w p p', which the steps take directly.
    """
    s = sigma.sigma if isinstance(sigma, PdPoint) else np.asarray(sigma, dtype=float)
    p = np.asarray(p, dtype=float)
    half = np.multiply.outer(np.asarray(w, dtype=float)[..., None] * (s @ p), p)  # w a p'
    return half + np.swapaxes(half, -1, -2)


def exp_sigma(sigma: PdPoint | np.ndarray, lyap: np.ndarray) -> tuple[PdPoint, int | np.ndarray]:
    """Retraction (L + I) Sigma (L + I) along the symmetric Lyapunov image
    L = L_Sigma[step] of an already-scaled step; no solve is made here.

    L is first scaled down to TRUST_CAP (see there; the quadratic is
    trustworthy only while |L| < 1).  Only an L whose Frobenius norm
    exceeds CAP_PRETEST can reach the cap, so the images' eigenvalues are
    read (``_trust_cap``) only in a step where one does.  One stacked
    ``eigvalsh`` of the images is their PD-floor test, the same read
    ``check_spd`` makes, and gives the new point its lam and, with their
    traces, the health record its ratio; the eigenbasis is left to first
    use.  An image below the floor is retried with L halved, at most
    PD_RETRIES times; a matrix that never passes keeps its input value.

    The step trusts what it is given and what it builds.  One pass takes
    the squared Frobenius norms of the images.  When all are at most
    CAP_PRETEST^2 (the usual step), no image is near the cap, so lyap is
    neither scanned entry by entry, nor copied, nor capped.  Otherwise it
    is copied before the cap writes into it: the caller's lyap is never
    written.  A norm that is not finite sends the images to an entry scan,
    which refuses one that is not finite with ``StepTooLargeError`` before
    any retraction: halving never makes it finite, and a fit step ends
    before handing one over.  A norm that overflows from finite entries is
    capped like any other.

    Returns (point, halvings): the halvings each matrix took, an int for
    one matrix and a (k,) array for a stack; PD_RETRIES + 1 marks a matrix
    left where it was.
    """
    point = sigma if isinstance(sigma, PdPoint) else PdPoint(sigma)
    shape, m = point.sigma.shape, point.sigma.shape[-1]
    # not copied: the usual step neither scans nor writes it
    lyap = np.asarray(lyap, dtype=float).reshape(-1, m, m)
    halvings = np.zeros(lyap.shape[0], dtype=int)
    sq = np.einsum("kij,kij->k", lyap, lyap)
    # NaN compares false: a NaN or infinite norm takes both branches
    if not sq.max() <= CAP_PRETEST * CAP_PRETEST:
        if not sq.max() < np.inf and not np.isfinite(lyap).all():
            raise StepTooLargeError("a scatter step's Lyapunov image is not finite")
        # rare (no step of the benchmark workloads takes it), so the cap
        # reads every image's eigenvalues
        lyap = lyap.copy(order="K")
        _trust_cap(lyap)
    base = point.sigma.reshape(-1, m, m)
    sig, lam = _retract(lyap, base)
    trace = sig.trace(axis1=1, axis2=2)
    below = ~above_pd_floor(lam[:, 0], trace, m)
    if below.any():
        # a matrix that never passes keeps its input value
        sig[below], lam[below] = base[below], point.lam.reshape(-1, m)[below]
        todo = np.flatnonzero(below)
        # a copy: the halvings below write into the images they retry
        retried = lyap[todo]
        for _ in range(PD_RETRIES):
            if todo.size == 0:
                break
            halvings[todo] += 1
            retried *= 0.5
            cand, cand_lam = _retract(retried, base[todo])
            ok = above_pd_floor(cand_lam[:, 0], cand.trace(axis1=1, axis2=2), m)
            sig[todo[ok]], lam[todo[ok]] = cand[ok], cand_lam[ok]
            todo, retried = todo[~ok], retried[~ok]
        halvings[todo] += 1
        # the traces of the stack as it ends, as the health record reads them
        trace = sig.trace(axis1=1, axis2=2)
    out = PdPoint._admitted(sig.reshape(shape), lam.reshape(shape[:-1]), trace=trace.reshape(shape[:-2]))
    return out, (int(halvings[0]) if len(shape) == 2 else halvings)


def _retract(lyap: np.ndarray, base: np.ndarray):
    """The images (L + I) Sigma (L + I) of (k, m, m) stacks and their
    ascending eigenvalues."""
    e = lyap + np.eye(lyap.shape[-1])
    image = _sym(e @ base @ e.swapaxes(1, 2))
    return image, np.linalg.eigvalsh(image)


def _trust_cap(lyap: np.ndarray) -> None:
    """Scale each image of the (k, m, m) stack lyap, in place, so that its
    largest |eigenvalue| is at most TRUST_CAP: by exactly 1.0 below the cap,
    so an image there keeps every bit."""
    top = np.abs(np.linalg.eigvalsh(lyap)[:, [0, -1]]).max(axis=1)
    # never divides by zero
    lyap *= (TRUST_CAP / np.maximum(top, TRUST_CAP))[:, None, None]


def exp_sphere(s: SpherePoint | np.ndarray, tangent: np.ndarray) -> SpherePoint:
    """Great-circle step cos(|t|) s - sin(|t|) t/|t| (descends along +t).

    The result is divided by its own norm, so it is built trusted."""
    vec = s.s if isinstance(s, SpherePoint) else np.asarray(s, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    norm = _norm(tangent)
    if norm < 1e-300:
        return SpherePoint(vec.copy())
    out = np.cos(norm) * vec - (np.sin(norm) / norm) * tangent
    out /= _norm(out)
    return SpherePoint._trusted(out)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float array, bit for bit, without its
    dispatch: sqrt(x . x) over the raveled x."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def project_sphere_grad(s: SpherePoint | np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the sphere tangent space at s."""
    vec = s.s if isinstance(s, SpherePoint) else np.asarray(s, dtype=float)
    egrad = np.asarray(egrad, dtype=float)
    return egrad - float(vec @ egrad) * vec


def transport_sigma(from_point: PdPoint | np.ndarray, to_sigma, u: np.ndarray) -> np.ndarray:
    """Vector transport L_from[u] @ to + to @ L_from[u] between PD points.

    Its Lyapunov image at ``to`` is L_from[u]: a momentum kept as its
    image needs no transport, so no fit step calls it."""
    to = to_sigma.sigma if isinstance(to_sigma, PdPoint) else np.asarray(to_sigma, dtype=float)
    b = lyapunov_solve(from_point, u)
    return _sym(b @ to + to @ b)
