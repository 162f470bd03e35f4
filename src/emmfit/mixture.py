"""Elliptical mixture models: density, likelihood, sampling, synthetic data."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import families
from .errors import GenerationError, InvalidFamilyError, MismatchError, _integer, _real
from .families import EllipticalComponent, EllipticalFamily
from .manifold import PdPoint

WEIGHT_TOL = 1e-12
# Widest rows whose covariance ``_biased_cov`` takes by column passes.
# numpy's mean over C-ordered (n, m) rows runs one inner loop per row; the
# column folds win while m is small.  Timed on a 2-core Xeon, one BLAS
# thread, best of 7, n = 1e5 (ms):
#
#   m                 2     3     4     5     6
#   np.cov          2.83  3.57  3.44  4.30  4.34
#   column passes   1.45  2.80  3.11  5.08  5.89
NARROW_ROWS = 4


@dataclass(frozen=True)
class MixtureModel:
    """A k-component mixture sharing one elliptical family.

    ``weights`` is a probability vector, ``mus`` is a finite (k, m) array
    and ``sigmas`` is (k, m, m) with every scatter matrix symmetric
    positive definite.  A raw ``sigmas`` array is checked by
    ``families.check_spd``; an admitted ``manifold.PdPoint`` stack is taken
    as it is (its ``sigma`` becomes ``sigmas``), because the check or
    retraction that admitted it already decided it.  Weights, locations and
    shapes are checked either way.
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
        # compared so that a NaN weight fails
        if not (w.ndim == 1 and (w >= 0).all() and abs(w.sum() - 1.0) <= WEIGHT_TOL):
            raise InvalidFamilyError("weights must be nonnegative and sum to one")
        k, m = w.size, self.family.m
        if mus.shape != (k, m) or sigmas.shape != (k, m, m):
            raise InvalidFamilyError(f"expected mus ({k},{m}) and sigmas ({k},{m},{m})")
        if not np.isfinite(mus).all():
            raise InvalidFamilyError("locations must be finite")
        if not admitted:
            families.check_spd(sigmas)
        # the frozen fields, set as object.__setattr__ would set them
        self.__dict__.update(weights=w, mus=mus, sigmas=sigmas)

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

        The rows are read as the (m, b) views of ``column_blocks``, each
        copied once into a contiguous buffer.  Per block and
        component the centred samples go into an (m, b) scratch buffer and
        one (m x m) @ (m x b) product whitens them into white[i]; the
        density kernel that EM runs (``_block_logdens``) turns
        the whitened block into log densities, written into the (k, n)
        output.  Centring before whitening keeps L_i^-1 (x - mu_i) exactly 0
        at x = mu_i, where the generator of a Kotz law with a > 1 is 0.
        Rows that do not have m entries are refused (``MismatchError``).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.m:
            raise MismatchError(f"points must be rows of {self.m} entries, got shape {x.shape}")
        blocks = column_blocks(x)
        out = np.empty((self.k, x.shape[0]))
        if not blocks:
            return out
        _, inv_chol, offset = self._kernel()
        m = self.m
        buffers = BlockBuffers(self.k, m, blocks[0].shape[1])
        lo = 0
        for xb in blocks:
            b = xb.shape[1]
            diff, white, t = buffers.views(b)
            # one strided read of the rows per block, not one per component:
            # the last component's whitened rows hold a contiguous copy
            # until its own whitening, the last, overwrites them
            rows = white[-1, :m]
            np.copyto(rows, xb)
            for i in range(self.k):
                np.subtract(rows, self.mus[i][:, None], out=diff)
                np.matmul(inv_chol[i], diff, out=white[i, :m])
            out[:, lo : lo + b] = self._block_logdens(white, offset, t)
            lo += b
        return out

    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(chol, inv_chol, offset) of the density kernel: one stacked
        Cholesky factors the k scatters as L_i L_i^T, one stacked solve
        against the identity gives the L_i^-1, and offset holds
        log pi_i - 1/2 log det Sigma_i from the factors' diagonals."""
        chol = np.linalg.cholesky(self.sigmas)
        inv_chol = np.linalg.solve(chol, np.broadcast_to(np.eye(self.m), chol.shape))
        half_logdet = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        with np.errstate(divide="ignore"):
            offset = np.log(self.weights) - half_logdet
        return chol, inv_chol, offset

    def _block_logdens(self, white, offset, t) -> np.ndarray:
        """The (k, b) weighted component log densities of a block whose
        whitened samples L_i^-1 (x - mu_i) fill the first m rows of each
        white[i] ((k, m + 1, b), from ``BlockBuffers``), with the offset of
        ``_kernel``.

        Their squared column norms go into the (k, b) buffer t, nonnegative
        by construction, so the family's unchecked ``_log_gen`` takes it (the
        Gaussian's overwrites it), and the offsets are added in place.
        """
        w = white[:, : self.m]
        parts = self.family._log_gen(np.einsum("kij,kij->kj", w, w, out=t))
        parts += offset[:, None]
        return parts

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at each row of x: the max-shifted log-sum-exp of
        ``component_logpdf(x)`` over the k components (``normalize_columns``,
        on that fresh array).  A column of -inf gives -inf, one holding +inf
        gives +inf and one holding NaN gives NaN, as
        ``scipy.special.logsumexp`` does, without a floating-point warning."""
        # the responsibilities of such a column are 0/0 or inf/inf; unread
        with np.errstate(invalid="ignore"):
            return normalize_columns(self.component_logpdf(x))

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
        family = families.make_family(doc["family"]["name"], doc["m"], **doc["family"]["params"])
        return MixtureModel(family, np.array(doc["pi"]), np.array(doc["mu"]), np.array(doc["sigma"]))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n")

    @staticmethod
    def load(path) -> "MixtureModel":
        return MixtureModel.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Dataset:
    """Samples plus optional ground truth and the seed that produced them.

    Frozen, so its derived statistics are computed once per Dataset:
    ``covariance`` is taken on first use and kept, read-only.  ``samples``
    is a read-only view of the array given, not a copy; writing into that
    array afterwards would leave the kept covariance stale.
    """

    samples: np.ndarray
    truth: MixtureModel | None = None
    seed: int | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise InvalidFamilyError("dataset needs at least one sample row")
        if samples.shape[1] < 1:
            raise InvalidFamilyError("dataset needs at least one column")
        if not np.all(np.isfinite(samples)):
            raise InvalidFamilyError("dataset entries must be finite")
        samples = samples.view()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def covariance(self) -> np.ndarray:
        """``sample_covariance(samples)``, computed once per Dataset; one
        whose trace overflows the float range is refused (``MismatchError``)."""
        cov = sample_covariance(self.samples)
        if not np.isfinite(np.trace(cov)):
            raise _overflow_error("the data covariance overflows", self.samples)
        cov.flags.writeable = False
        return cov


def _overflow_error(what: str, samples: np.ndarray) -> MismatchError:
    """The refusal of samples at whose scale ``what`` leaves the float range."""
    scale = float(np.max(np.abs(samples)))
    return MismatchError(f"{what} at the scale of the data (largest |entry| {scale:.3g}); rescale it")


def as_dataset(data, m: int) -> Dataset:
    """data itself if it is a Dataset, else a Dataset over the raw array,
    which must pass the Dataset checks; either way it must have the m
    columns of the model or direction it is taken with."""
    dataset = data if isinstance(data, Dataset) else Dataset(data)
    if dataset.m != m:
        raise MismatchError(f"data has {dataset.m} columns, the model or direction has dimension {m}")
    return dataset


def sample_covariance(samples: np.ndarray) -> np.ndarray:
    """The biased (m, m) covariance of the rows of an (n, m) array.

    Rows whose largest |entry| reaches 2^255, where the sum of squares
    inside ``np.cov`` could overflow, or stays below 2^-255 are scaled by
    2^-e first, e the binary exponent of that entry, and the covariance by
    2^2e after.  Scaling by a power of two is exact, so the scaled rows give
    the bits the plain ones would wherever those stay in range, and finite
    rows never overflow inside ``np.cov``; a covariance beyond the float
    range comes back as inf, which ``Dataset.covariance`` refuses.
    Both branches take ``_biased_cov``, the bits of ``np.cov``."""
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[1]
    e = int(np.frexp(max(-samples.min(), samples.max()))[1])
    if abs(e) <= 255:
        return _biased_cov(samples).reshape(m, m)
    cov = _biased_cov(np.ldexp(samples, -e)).reshape(m, m)
    with np.errstate(over="ignore"):
        return np.ldexp(cov, 2 * e)


def _biased_cov(samples: np.ndarray) -> np.ndarray:
    """``np.cov(samples.T, bias=True)`` of a float (n, m) array, bit for bit.

    ``np.cov`` copies samples.T in its own layout (order K), takes the
    mean of each row of the copy, centres the copy in place and returns
    ``np.dot(x, x.T) * (1 / n)``.  For C-ordered rows that copy is
    F-ordered, and numpy sums and centres it with an inner loop over the
    m entries of each sample: every mean is a left fold over its column,
    started from +0.0.  Up to ``NARROW_ROWS`` columns the same
    steps run here over whole columns: each fold is the last entry of the
    column's ``cumsum``, plus 0.0, and each column is centred into the
    F-ordered copy by one subtraction.  Where the copy would be
    C-contiguous (F-ordered samples, or one column) numpy sums contiguous
    rows pairwise, and ``np.cov`` itself is taken."""
    n, m = samples.shape
    cols = samples.T
    if m > NARROW_ROWS:
        return np.cov(cols, bias=True)
    centred = np.empty_like(cols)  # in the layout of np.cov's copy
    if centred.flags.c_contiguous:
        return np.cov(cols, bias=True)
    # each cumsum runs in the row it is centred into next
    mean = np.array([np.cumsum(col, out=row)[-1] for col, row in zip(cols, centred)])
    mean += 0.0
    mean /= n
    for col, mu, row in zip(cols, mean, centred):
        np.subtract(col, mu, out=row)
    cov = np.dot(centred, centred.T)
    cov *= np.true_divide(1, n)
    return cov


# Columns per block of the density kernel.  A block's whitened samples,
# k * (m + 1) * BLOCK doubles, take 2.25 MiB at k = 4, m = 8 (the EM
# benchmark shape), so the EM M-step sums read them from cache.  On a
# 2-core Xeon with 2 MiB of L2 per core, one BLAS thread, the best EM
# benchmark iterations took 5.83-5.96 ms at 8192 columns and 5.54-5.69 ms at
# 4096, within noise of each other, against 5.97 ms at 2048 and 8.27 ms at
# 16384.
BLOCK = 8192


def column_blocks(x: np.ndarray) -> list[np.ndarray]:
    """The rows of an (n, m) array as (m, b) views x[lo:lo + b].T, in blocks
    of BLOCK rows; the last block holds the rest."""
    return [x[lo : lo + BLOCK].T for lo in range(0, x.shape[0], BLOCK)]


class BlockBuffers:
    """Work buffers of the density kernel for blocks of at most width
    columns, handed out as contiguous views: an (m, b) scratch, the
    (k, m + 1, b) whitened samples, whose last rows are ones, and the (k, b)
    log densities.  The ones are written when the width changes, not per
    block."""

    def __init__(self, k: int, m: int, width: int):
        self.k, self.m = k, m
        self._scratch = np.empty(m * width)
        self._white = np.empty(k * (m + 1) * width)
        self._t = np.empty(k * width)
        self._width = None

    def views(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k, m = self.k, self.m
        white = self._white[: k * (m + 1) * b].reshape(k, m + 1, b)
        if b != self._width:
            white[:, m] = 1.0
            self._width = b
        return self._scratch[: m * b].reshape(m, b), white, self._t[: k * b].reshape(k, b)


def normalize_columns(a: np.ndarray) -> np.ndarray:
    """Overwrite a with exp(a) / sum(exp(a), axis=0) and return the
    log-sum-exp of its columns, each shifted by its largest finite entry.

    One ``exp`` pass serves both: the shifted exponentials are written
    over a, summed for the log-sum-exp, and divided by their column sums.
    """
    top = a.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
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
    return float(-np.mean(model.logpdf(as_dataset(data, model.m).samples)))


def sample_mixture(model: MixtureModel, rng: np.random.Generator, n: int) -> Dataset:
    """Draw n samples: categorical component choice, then the elliptical law."""
    return Dataset(_draw_rows(model, rng, _integer(n, "n", GenerationError)), truth=model)


def _draw_rows(model: MixtureModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of the mixture, each component's draws scattered to the rows
    its labels name.  The scatter goes through a 1-D view whose items are
    whole rows, so it moves one item per index, not m doubles through 2-D
    fancy indexing: the same bytes."""
    labels = rng.choice(model.k, size=n, p=model.weights)
    out = np.empty((n, model.m))
    row = np.dtype((np.void, out.itemsize * model.m))
    rows = out.view(row).reshape(n)
    for i in range(model.k):
        idx = np.flatnonzero(labels == i)
        if idx.size:
            rows[idx] = families.sample(model.component(i), rng, idx.size).view(row)[:, 0]
    return out


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
    seed: int | None = None,
) -> Dataset:
    """Random balanced Gaussian mixture in the style of well-separated
    benchmarks.

    Covariances are Q diag(lambda) Q^T with random orthogonal Q and
    eigenvalues log-uniform over a band of ratio ecc^2 (condition number
    at most ecc^2).  Means are drawn uniformly in a ball, then rescaled so
    every pairwise distance is at least
    separation * sqrt(max_i trace(Sigma_i)).  Both constraints are scale
    invariant, so the mixture is finally standardized to unit average
    variance per dimension; stepsize grids then carry across datasets.
    """
    m, k, n = (_integer(size, name, GenerationError, 1) for name, size in (("m", m), ("k", k), ("n", n)))
    eccentricity = _real(eccentricity, "eccentricity", GenerationError, 1.0)
    if _real(separation, "separation", GenerationError, 0.0) == 0.0:
        raise GenerationError("separation must be positive, got 0.0")
    lam_lo, lam_hi = 1.0 / eccentricity, eccentricity
    sigmas = np.empty((k, m, m))
    for i in range(k):
        q = random_orthogonal(m, rng)
        lam = np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi), size=m))
        sigmas[i] = (q * lam) @ q.T
    min_sep = separation * np.sqrt(max(np.trace(s) for s in sigmas))

    direction = rng.standard_normal((k, m))
    direction /= np.maximum(np.linalg.norm(direction, axis=1, keepdims=True), 1e-300)
    radius = min_sep * rng.random(k) ** (1.0 / m)
    mus = direction * radius[:, None]
    if k > 1:
        dists = np.linalg.norm(mus[:, None, :] - mus[None, :, :], axis=-1)
        dmin = dists[np.triu_indices(k, 1)].min()
        # compared so that a NaN distance fails; two equal draws have probability 0
        if not dmin > 0.0:
            raise GenerationError(f"could not place separated means: the closest two are {dmin} apart")
        if dmin < min_sep:
            mus = mus * (min_sep / dmin)

    pi = np.full(k, 1.0 / k)

    # standardize: unit average variance per dimension
    mean = pi @ mus
    second = sum(
        w * (sig + np.outer(mu, mu)) for w, mu, sig in zip(pi, mus, sigmas)
    ) - np.outer(mean, mean)
    level = float(np.sqrt(np.trace(second) / m))
    mus = (mus - mean) / level
    sigmas = sigmas / level**2

    truth = MixtureModel(families.gaussian(m), pi, mus, sigmas)
    return Dataset(_draw_rows(truth, rng, n), truth=truth, seed=seed)


def save_dataset_csv(path, data: Dataset | np.ndarray) -> None:
    samples = data.samples if isinstance(data, Dataset) else np.asarray(data)
    np.savetxt(path, samples, delimiter=",", fmt="%.17g")


def load_dataset_csv(path) -> Dataset:
    return Dataset(np.loadtxt(path, delimiter=",", ndmin=2))
