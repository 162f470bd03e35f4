"""Elliptical mixture models: density, likelihood, sampling, synthetic data."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from . import families
from .errors import GenerationError, InvalidFamilyError
from .families import EllipticalComponent, EllipticalFamily

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureModel:
    """A k-component mixture sharing one elliptical family.

    ``weights`` is a probability vector, ``mus`` is (k, m) and ``sigmas``
    is (k, m, m) with every scatter matrix symmetric positive definite.
    """

    family: EllipticalFamily
    weights: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mus = np.asarray(self.mus, dtype=float)
        sigmas = np.asarray(self.sigmas, dtype=float)
        if w.ndim != 1 or np.any(w < 0) or abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidFamilyError("weights must be nonnegative and sum to one")
        k, m = w.size, self.family.m
        if mus.shape != (k, m) or sigmas.shape != (k, m, m):
            raise InvalidFamilyError(f"expected mus ({k},{m}) and sigmas ({k},{m},{m})")
        for s in sigmas:
            families.check_spd(s)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def m(self) -> int:
        return self.family.m

    def component(self, i: int) -> EllipticalComponent:
        return EllipticalComponent(self.mus[i], self.sigmas[i], self.family)

    def component_logpdf(self, x: np.ndarray) -> np.ndarray:
        """(k, n) array of log(pi_i f_i(x)): weighted component log densities."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        parts = np.empty((self.k, x.shape[0]))
        with np.errstate(divide="ignore"):
            logw = np.log(self.weights)
        for i in range(self.k):
            chol = np.linalg.cholesky(self.sigmas[i])
            z = solve_triangular(chol, (x - self.mus[i]).T, lower=True)
            t = np.sum(z * z, axis=0)
            logdet = 2.0 * np.sum(np.log(np.diag(chol)))
            parts[i] = logw[i] + self.family.log_gen(t) - 0.5 * logdet
        return parts

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of x, computed by log-sum-exp."""
        return logsumexp(self.component_logpdf(x), axis=0)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "family": {"name": self.family.name, "params": self.family.params()},
            "m": self.m,
            "k": self.k,
            "pi": self.weights.tolist(),
            "mu": self.mus.tolist(),
            "sigma": self.sigmas.tolist(),
        }

    @staticmethod
    def from_dict(doc: dict) -> "MixtureModel":
        family = families.make_family(doc["family"]["name"], int(doc["m"]), **doc["family"]["params"])
        return MixtureModel(family, np.array(doc["pi"]), np.array(doc["mu"]), np.array(doc["sigma"]))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    @staticmethod
    def load(path) -> "MixtureModel":
        return MixtureModel.from_dict(json.loads(Path(path).read_text()))


@dataclass
class Dataset:
    """Samples plus optional ground truth and the seed that produced them."""

    samples: np.ndarray
    truth: MixtureModel | None = None
    seed: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise InvalidFamilyError("dataset needs at least one sample row")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidFamilyError("dataset entries must be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]


def pdf(model: MixtureModel, x) -> float:
    """Mixture density at one point."""
    return float(np.exp(model.logpdf(np.asarray(x, dtype=float).reshape(1, -1))[0]))


def nll(model: MixtureModel, data) -> float:
    """Averaged negative log-likelihood over dataset rows."""
    samples = data.samples if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    return float(-np.mean(model.logpdf(samples)))


def sample_mixture(model: MixtureModel, rng: np.random.Generator, n: int) -> Dataset:
    """Draw n samples: categorical component choice, then the elliptical law."""
    n = int(n)
    labels = rng.choice(model.k, size=n, p=model.weights)
    out = np.empty((n, model.m))
    for i in range(model.k):
        idx = np.flatnonzero(labels == i)
        if idx.size:
            out[idx] = families.sample(model.component(i), rng, idx.size)
    return Dataset(out, truth=model)


def random_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def generate_synthetic(
    m: int,
    k: int,
    n: int,
    eccentricity: float,
    separation: float,
    rng: np.random.Generator,
    weights: str = "balanced",
    seed: int | None = None,
    max_retries: int = 20,
) -> Dataset:
    """Random Gaussian mixture in the style of well-separated benchmarks.

    Covariances are Q diag(lambda) Q^T with random orthogonal Q and
    eigenvalues log-uniform over a band of ratio ecc^2 (condition number
    at most ecc^2).  Means are drawn uniformly in a ball, then rescaled so
    every pairwise distance is at least
    separation * sqrt(max_i trace(Sigma_i)).  Both constraints are scale
    invariant, so the mixture is finally standardized to unit average
    variance per dimension; stepsize grids then carry across datasets.
    """
    if m < 1 or k < 1 or n < 1:
        raise GenerationError("m, k, n must be positive")
    if eccentricity < 1.0 or separation <= 0.0:
        raise GenerationError("need eccentricity >= 1 and separation > 0")
    lam_lo, lam_hi = 1.0 / eccentricity, eccentricity
    sigmas = np.empty((k, m, m))
    for i in range(k):
        q = random_orthogonal(m, rng)
        lam = np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi), size=m))
        sigmas[i] = (q * lam) @ q.T
    min_sep = separation * np.sqrt(max(np.trace(s) for s in sigmas))

    mus = None
    for _ in range(max_retries):
        direction = rng.standard_normal((k, m))
        direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
        radius = min_sep * rng.random(k) ** (1.0 / m)
        cand = direction * radius[:, None]
        if k == 1:
            mus = cand
            break
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
        dmin = dists[np.triu_indices(k, 1)].min()
        if dmin > 0.0:
            mus = cand if dmin >= min_sep else cand * (min_sep / dmin)
            break
    if mus is None:
        raise GenerationError("could not place separated means")

    if weights == "balanced":
        pi = np.full(k, 1.0 / k)
    elif weights == "dirichlet":
        pi = rng.dirichlet(np.ones(k))
    else:
        raise GenerationError(f"unknown weight scheme {weights!r}")

    # standardize: unit average variance per dimension
    mean = pi @ mus
    second = sum(
        w * (sig + np.outer(mu, mu)) for w, mu, sig in zip(pi, mus, sigmas)
    ) - np.outer(mean, mean)
    level = float(np.sqrt(np.trace(second) / m))
    mus = (mus - mean) / level
    sigmas = sigmas / level**2

    truth = MixtureModel(families.gaussian(m), pi, mus, sigmas)
    data = sample_mixture(truth, rng, n)
    data.seed = seed
    return data


def save_dataset_csv(path, data: Dataset | np.ndarray) -> None:
    samples = data.samples if isinstance(data, Dataset) else np.asarray(data)
    np.savetxt(path, samples, delimiter=",", fmt="%.17g")


def load_dataset_csv(path) -> Dataset:
    return Dataset(np.loadtxt(path, delimiter=",", ndmin=2))
