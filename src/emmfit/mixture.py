"""Elliptical mixture models: density, likelihood, sampling, synthetic data."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import families
from .errors import GenerationError, InvalidFamilyError, MismatchError
from .families import EllipticalComponent, EllipticalFamily
from .manifold import PdPoint

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class MixtureModel:
    """A k-component mixture sharing one elliptical family.

    ``weights`` is a probability vector, ``mus`` is (k, m) and ``sigmas``
    is (k, m, m) with every scatter matrix symmetric positive definite.
    A raw ``sigmas`` array is checked by ``families.check_spd``; an admitted
    ``manifold.PdPoint`` stack is taken as it is (its ``sigma`` becomes
    ``sigmas``), because the eigh that admitted it already decided it.
    Weights and shapes are checked either way.
    """

    family: EllipticalFamily
    weights: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mus = np.asarray(self.mus, dtype=float)
        admitted = isinstance(self.sigmas, PdPoint)
        sigmas = self.sigmas.sigma if admitted else np.asarray(self.sigmas, dtype=float)
        if w.ndim != 1 or np.any(w < 0) or abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidFamilyError("weights must be nonnegative and sum to one")
        k, m = w.size, self.family.m
        if mus.shape != (k, m) or sigmas.shape != (k, m, m):
            raise InvalidFamilyError(f"expected mus ({k},{m}) and sigmas ({k},{m},{m})")
        if not admitted:
            families.check_spd(sigmas)
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
        """Component i, over this model's already validated arrays."""
        return EllipticalComponent._trusted(self.mus[i], self.sigmas[i], self.family)

    def component_logpdf(self, x: np.ndarray) -> np.ndarray:
        """(k, n) array of log(pi_i f_i(x)), the weighted component log
        densities at the n rows of x ((n, m), or one point as an m-vector).

        The rows are read as the (m, n) view x.T, without a copy, and go
        through the same batched kernel that EM runs (``_weighted_logdens``)
        with two (m, n) work buffers allocated here.
        """
        xt = np.atleast_2d(np.asarray(x, dtype=float)).T
        return self._weighted_logdens(xt, np.empty(xt.shape), np.empty(xt.shape))

    def _weighted_logdens(self, xt: np.ndarray, diff: np.ndarray, white: np.ndarray) -> np.ndarray:
        """The (k, n) weighted component log densities at the columns of the
        (m, n) array xt; diff and white are (m, n) buffers the caller owns
        and may reuse across calls (their contents are overwritten).

        One stacked Cholesky factors the k scatters as L_i L_i^T and one
        stacked solve against the identity gives the L_i^-1.  Per component
        the centred samples go into diff, one (m x m) @ (m x n) product
        whitens them into white, and their squared column norms fill row i
        of t; one ``log_gen`` call on all of t follows, and
        log pi_i - 1/2 log det Sigma_i is added in place.
        """
        k, m = self.k, self.m
        chol = np.linalg.cholesky(self.sigmas)
        inv_chol = np.linalg.solve(chol, np.broadcast_to(np.eye(m), chol.shape))
        half_logdet = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        t = np.empty((k, xt.shape[1]))
        for i in range(k):
            np.subtract(xt, self.mus[i][:, None], out=diff)
            np.matmul(inv_chol[i], diff, out=white)
            np.einsum("ij,ij->j", white, white, out=t[i])
        parts = self.family.log_gen(t)
        with np.errstate(divide="ignore"):
            parts += (np.log(self.weights) - half_logdet)[:, None]
        return parts

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of x: the max-shifted log-sum-exp of
        ``component_logpdf(x)`` over the k components."""
        return logsumexp_columns(self.component_logpdf(x))

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


def as_samples(data, m: int) -> np.ndarray:
    """The (n, m) samples of a Dataset, or of a raw array given the Dataset
    checks (a 2-D array with at least one row, every entry finite)."""
    samples = (data if isinstance(data, Dataset) else Dataset(data)).samples
    if samples.shape[1] != m:
        raise MismatchError(f"data has {samples.shape[1]} columns, the model has dimension {m}")
    return samples


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """The biased (m, m) covariance of the rows of an (n, m) array."""
    m = samples.shape[1]
    return np.cov(samples.T, bias=True).reshape(m, m)


def _column_shift(a: np.ndarray) -> np.ndarray:
    top = a.max(axis=0)
    return np.where(np.isfinite(top), top, 0.0)


def logsumexp_columns(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=0)), each column shifted by its largest entry.

    A column of -inf gives -inf, one holding +inf gives +inf and one
    holding NaN gives NaN, as ``scipy.special.logsumexp`` does, without a
    floating-point warning.
    """
    shift = _column_shift(a)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift).sum(axis=0)) + shift


def normalize_columns(a: np.ndarray) -> np.ndarray:
    """Overwrite a with exp(a) / sum(exp(a), axis=0) and return the
    log-sum-exp of its columns, bit for bit ``logsumexp_columns(a)``.

    One ``exp`` pass serves both: the shifted exponentials are written
    over a, summed for the log-sum-exp, and divided by their column sums.
    """
    shift = _column_shift(a)
    np.exp(np.subtract(a, shift, out=a), out=a)
    sums = a.sum(axis=0)
    a /= sums
    with np.errstate(divide="ignore"):
        return np.log(sums) + shift


def pdf(model: MixtureModel, x) -> float:
    """Mixture density at one point."""
    return float(np.exp(model.logpdf(np.asarray(x, dtype=float).reshape(1, -1))[0]))


def nll(model: MixtureModel, data) -> float:
    """Averaged negative log-likelihood over the rows of a Dataset, or of a
    raw (n, m) array given the Dataset checks."""
    return float(-np.mean(model.logpdf(as_samples(data, model.m))))


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
