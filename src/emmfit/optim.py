"""Fitting loops.

Three stochastic Riemannian methods share one engine: per iteration one
random unit projection is drawn, the semi-discrete 1-D cost and its
Euclidean gradients are formed, converted to tangent directions, and the
parameters move through the manifold retractions.  They differ only in
how the steps are scaled: plain steps (vanilla), Riemannian AMSGrad with
one scalar second moment per manifold factor (radam, the adaptive
baseline of Becigneul & Ganea, ICLR 2019), or plain weight and location
steps with the direction-wise scatter accumulator (dadam).  All k
scatters take one step together: their momenta are (k, m, m) stacks,
and one ``manifold.exp_sigma`` call retracts the whole stack, capping
and halving each step as it needs.  Each thing is decided
once: the samples are validated at the ``fit`` boundary and their
covariance, which sets every direction's grid margin, is taken once per
``Dataset`` (``Dataset.covariance``), so the starts and fits of one data
set share it; each step's model is built from the ``PdPoint`` the
retraction admitted, so no scatter is checked again inside the loop.
Validation stays where data and models enter (``fit``, the public
constructors, ``families.check_spd``); inside the loop a step trusts what
it built.  The weight square roots are a plain unit vector divided by its
own norm, the gradient triple is a plain named tuple, the scatter moments
update in place with p p' formed once, the health record reads the
eigenvalues and traces the retraction took, and events are looked for
only in a step where one occurred.  A fit ends, ``failed``, at
the first iteration whose projection fails, whose cost or gradient triple
is not finite (before it steps), whose step leaves a weight, location or
scatter image that is not finite (with the model it started from) or
whose retraction leaves a scatter on the PD floor after every halving.
Both engines write one record, ``FitReport``: it appends each iteration's
cost and health as the iteration ends, and names the failure that ended
the fit.  An EM baseline covers the Gaussian family: each iteration is
one pass over a centred copy of the samples in cache-sized column
blocks, running the density kernel of
``MixtureModel.component_logpdf`` and taking the M-step sums in whitened
coordinates per block, and each iterate is rebuilt from the eigenvalue
floor's (lam, q) and admitted with its lam; it ends, ``failed``, at the
first non-finite NLL, with the last model it reached.  A fit depends on its start, its
data and the five settings of ``OptimizerConfig`` (the moment decays are
the constants ``BETA1`` and ``BETA2``) and nothing else: each
engine draws from ``np.random.default_rng(cfg.seed)``, so
``fit(model0, data, OptimizerConfig(**report.config))`` rebuilds a fit
from its record.

The scatter momentum is kept as its Lyapunov image U = L_Sigma[u], the
coordinates ``manifold.exp_sigma`` steps in: there vector transport is
the identity and the Riemannian gradient's image is the Euclidean
w p p'.  Both adaptive methods step by -alpha U / sqrt(S) with one scalar
S per scatter (radam's per-factor second moment, dadam's p' v p), and a
scalar scale commutes with the solve, so no step makes a Lyapunov solve
or needs an eigenbasis, and the retraction admits each step's scatters
with one ``eigvalsh``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import families, manifold, transport
from .errors import EmmfitError, MismatchError, UnsupportedGradientError, _integer, _real
from .gradients import euclidean_grad
from .manifold import PdPoint
from .mixture import (
    BlockBuffers,
    MixtureModel,
    as_dataset,
    column_blocks,
    normalize_columns,
)

METHODS = ("vanilla", "radam", "dadam", "em")

# First- and second-moment decays of the adaptive methods (radam, dadam).
BETA1 = 0.9
BETA2 = 0.999
# Added under every adaptive square root.
EPS_ADP = 1e-12
# Floor on the weight square roots after a sphere step so weights stay positive.
SQRTPI_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """The five settings of one fit, stored as Python numbers: a record is JSON."""

    method: str = "dadam"  # one of METHODS
    alpha: float = 0.1  # stepsize
    max_iters: int = 2000
    seed: int = 0  # projection stream; EM's collapse reseeding
    em_tol: float = 1e-8  # EM stops once its NLL moves by less than this

    def __post_init__(self):
        # refuses what no fit runs with, a record's config as well
        if self.method not in METHODS:
            raise MismatchError(f"unknown method {self.method!r}")
        for name, rule, lo in (("alpha", _real, 0.0), ("em_tol", _real, 0.0), ("max_iters", _integer, 1),
                               ("seed", _integer, 0)):
            object.__setattr__(self, name, rule(getattr(self, name), name, MismatchError, lo))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FitReport:
    """Per-iteration trace and the final model of one fitting run.  Both
    engines write it: ``_record`` appends each iteration that ran to the
    traces, and ``_end`` turns them into arrays.  ``method`` and ``seed``
    are read from ``config``, the one copy of the settings."""

    final_model: MixtureModel
    costs: np.ndarray = field(default_factory=list)  # objective trace (sliced cost; NLL for EM)
    wall_ms: np.ndarray = field(default_factory=list)
    min_eig_ratio: np.ndarray = field(default_factory=list)  # per-iteration min_i lambda_min / (tr/m)
    events: list = field(default_factory=list)
    failure_reason: str | None = None  # the failure that ended the fit
    config: dict = field(default_factory=dict)

    @property
    def method(self) -> str:
        return self.config["method"]

    @property
    def seed(self) -> int:
        return self.config["seed"]

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None

    @property
    def iterations(self) -> int:
        return len(self.costs)

    @classmethod
    def _start(cls, model0: MixtureModel, cfg: OptimizerConfig) -> "FitReport":
        return cls(model0, config=cfg.to_dict())

    def _record(self, cost: float, points: PdPoint, tic: float) -> None:
        """Append an iteration that started at ``tic`` and left the scatters
        ``points``: their ascending eigenvalues and traces are read from the
        point, which took them when it was admitted (or takes them once,
        here)."""
        self.costs.append(cost)
        self.min_eig_ratio.append((points.lam[:, 0] / (points.trace / points.sigma.shape[-1])).min())
        self.wall_ms.append(1e3 * (time.perf_counter() - tic))

    def _end(self, final_model: MixtureModel) -> "FitReport":
        """Turn the traces into arrays, one entry per iteration that ran."""
        self.final_model = final_model
        for name in ("costs", "wall_ms", "min_eig_ratio"):
            setattr(self, name, np.array(getattr(self, name), dtype=float))
        return self

    def to_dict(self) -> dict:
        """Schema 1, strict JSON: a final cost that is not finite (a fit
        ended by a projection failure records NaN) is written as null."""
        final_cost = float(self.costs[-1]) if self.iterations else math.nan
        return {
            "schema_version": 1,
            "method": self.method,
            "iterations": self.iterations,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "events": list(self.events),
            "seed": self.seed,
            "config": self.config,
            "final_cost": final_cost if math.isfinite(final_cost) else None,
            "final_model": self.final_model.to_dict(),
            "wall_ms_total": float(np.sum(self.wall_ms)),
        }


class _FactorMoments:
    """Riemannian AMSGrad moments of the weight sphere, one factor, or of
    the k locations, the rows of a (k, m) stack: each factor's first moment
    and the running max vhat of one scalar second moment, the decayed mean
    of its squared gradient norm, which no change of coordinates moves."""

    def __init__(self, shape: tuple):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape[:-1])
        self.vhat = np.zeros(shape[:-1])

    def step(self, grad, carried):
        """Blend the carried first moment with grad; return m / sqrt(vhat)."""
        self.m = BETA1 * carried + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * (grad * grad).sum(axis=-1)
        self.vhat = np.maximum(self.vhat, self.v)
        return self.m / np.sqrt(self.vhat + EPS_ADP)[..., None]


class _ScatterMoments:
    """The (k, m, m) scatter momenta, kept as their Lyapunov images U, and
    the running max S of one second moment per scatter: for radam the
    decayed mean v of w^2, the squared norm of the gradient image w p p';
    for dadam p' v p, v the decayed mean of g g' = w^2 p p'.  ``step`` takes
    U to BETA1 U + (1 - BETA1) w p p' and returns the step's image
    -alpha U / sqrt(S), which ``manifold.exp_sigma`` takes."""

    def __init__(self, k: int, m: int, directional: bool):
        self.directional = directional
        self.u = np.zeros((k, m, m))
        self.v = np.zeros((k, m, m) if directional else k)
        self.second = np.zeros(k)

    def step(self, grad, alpha: float):
        # p p', formed once; g = w p p', and g g' = w^2 p p' for a unit p
        pp = grad.pp
        self.u *= BETA1
        self.u += (1.0 - BETA1) * (grad.w_sigma[:, None, None] * pp)
        w2 = (1.0 - BETA2) * grad.w_sigma**2
        self.v *= BETA2
        self.v += w2[:, None, None] * pp if self.directional else w2
        self.second = np.maximum((self.v @ grad.p) @ grad.p if self.directional else self.v, self.second)
        return -alpha * self.u / np.sqrt(self.second + EPS_ADP)[:, None, None]


def _fit_manifold(model0: MixtureModel, data, cfg: OptimizerConfig) -> FitReport:
    rng = np.random.default_rng(cfg.seed)
    dataset = as_dataset(data, model0.m)
    _covariance_trace(dataset)  # refuses a covariance that overflows
    samples, cov = dataset.samples, dataset.covariance
    family = model0.family
    k, m = model0.k, model0.m
    method, alpha = cfg.method, cfg.alpha

    sphere = manifold.sphere_from_weights(model0.weights)
    mus = model0.mus.copy()
    points = PdPoint(model0.sigmas)

    scatter = _ScatterMoments(k, m, directional=method == "dadam")
    pi_moments = _FactorMoments((k,))
    mu_moments = _FactorMoments((k, m))

    report = FitReport._start(model0, cfg)
    events = report.events
    current = model0
    for h in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        # one direction per step; seeded fits depend on this exact draw
        p = transport.random_projections(m, 1, rng)[0]
        try:
            ctx = transport.make_projection_context(p, samples, cov=cov)
            projected = transport.project_model(current, ctx)
            cost = transport.projected_w2(ctx, projected)
            grad = euclidean_grad(current, ctx, projected)
        except EmmfitError as exc:
            events.append(f"iter {h}: projection failed ({exc})")
            report.failure_reason = f"projection failure at iteration {h}"
            cost = np.nan
        else:
            if not (
                math.isfinite(cost)
                and np.isfinite(grad.g_sqrtpi).all()
                and np.isfinite(grad.g_mu).all()
                and np.isfinite(grad.w_sigma).all()
            ):
                report.failure_reason = f"non-finite cost or gradient at iteration {h}"
        # after a failure there is nothing to step along: the fit ends at
        # this iteration, with the model it started from
        if not report.failed:
            # ---- weights on the sphere, locations in Euclidean space, and
            # all k scatters in one step along Lyapunov images: the
            # Riemannian gradient's is g_sigma
            tangent = manifold.project_sphere_grad(sphere, grad.g_sqrtpi)
            if method == "radam":
                # carried by projection and scaled by a scalar, it stays tangent
                carried = manifold.project_sphere_grad(sphere, pi_moments.m)
                tangent = pi_moments.step(tangent, carried)
            g_mu = mu_moments.step(grad.g_mu, mu_moments.m) if method == "radam" else grad.g_mu
            # a step too long for the float range leaves a weight, location
            # or scatter image non-finite, which ends the fit here, with the
            # model this iteration started from
            with np.errstate(over="ignore", invalid="ignore"):
                s = manifold.exp_sphere(sphere, alpha * tangent)
                mus = mus - alpha * g_mu
                lyap = -alpha * grad.g_sigma if method == "vanilla" else scatter.step(grad, alpha)
            if not (np.isfinite(s).all() and np.isfinite(mus).all() and np.isfinite(lyap).all()):
                report.failure_reason = f"non-finite step at iteration {h}"
        if not report.failed:
            # renormalised whether or not a weight was floored
            low = s < SQRTPI_FLOOR
            if low.any():
                for i in np.flatnonzero(low):
                    events.append(f"iter {h}: weight floor for component {i}")
                s = np.maximum(s, SQRTPI_FLOOR)
            sphere = s / manifold._norm(s)
            points, halvings = manifold.exp_sigma(points, lyap)
            if halvings.any():
                exhausted = halvings > manifold.PD_RETRIES
                for i in np.flatnonzero(~exhausted & (halvings > 0)):
                    events.append(f"iter {h}: step halved {halvings[i]}x for component {i}")
                # a scatter that no halving lifts off the floor ends the fit
                # at this iteration, with the model this step reached
                for i in np.flatnonzero(exhausted):
                    events.append(f"iter {h}: pd safeguard exhausted for component {i}")
                    report.failure_reason = f"pd safeguard exhausted at iteration {h}"

            current = MixtureModel(family, sphere * sphere, mus, points)

        report._record(cost, points, tic)
        if report.failed:
            break
    return report._end(current)


def fit(model0, data, cfg: OptimizerConfig) -> FitReport:
    """Fit by cfg.method from model0; the Riemannian methods need gradients.
    The fit draws from ``np.random.default_rng(cfg.seed)`` alone."""
    if cfg.method == "em":
        return fit_em_gmm(model0, data, cfg)
    if not model0.family.has_gradient:
        family = model0.family
        raise UnsupportedGradientError(
            f"{family.name} {family.params()} has no sliced-cost gradient for {cfg.method}"
        )
    return _fit_manifold(model0, data, cfg)


def _covariance_trace(dataset) -> float:
    """The trace of the data covariance, refused with ``MismatchError`` where
    it overflows the float range."""
    trace = float(np.trace(dataset.covariance))
    if not np.isfinite(trace):
        raise _overflow_error("the data covariance overflows", dataset.samples)
    return trace


def _overflow_error(what: str, samples: np.ndarray) -> MismatchError:
    """The refusal of samples at whose scale ``what`` leaves the float range."""
    scale = float(np.max(np.abs(samples)))
    return MismatchError(f"{what} at the scale of the data (largest |entry| {scale:.3g}); rescale it")


def fit_em_gmm(model0: MixtureModel, data, cfg: OptimizerConfig) -> FitReport:
    """Standard EM with a covariance eigenvalue floor and collapse reseeding.

    The samples are copied once per fit into contiguous (m + 1, b) blocks of
    ``mixture.BLOCK`` columns: the samples less their mean c, over a row of
    ones.  Each iteration makes one pass over them.  Per block and
    component one (m x (m + 1)) @ ((m + 1) x b) product with
    [L_i^-1 | -L_i^-1 (mu_i - c)] centres and whitens at once, giving
    W_i = L_i^-1 (x - mu_i) in the first m rows of a (k, m + 1, b) buffer
    whose last row stays ones.  The density kernel of
    ``MixtureModel.component_logpdf`` turns W into the (k, b) log
    densities; their squared norms are nonnegative by construction, so the
    Gaussian generator takes them unchecked, in place.  ``normalize_columns``
    turns them into the responsibilities r in place while adding their
    log-sum-exp to the NLL.  While the block is still in cache the M-step
    sums are taken in whitened coordinates: N_i = sum r, and one product
    (W_i * r_i) [W_i; 1]^T gives S_i = (W_i * r) W_i^T and s_i = W_i r
    together.  After the pass, with d = s_i / N_i, the location is
    mu_i + L_i d and the scatter L_i (S_i / N_i - d d^T) L_i^T.  The sums
    are shifted by the current mu_i, which is exact for any shift; d is
    small once the fit settles, so the subtraction loses little to
    cancellation.  The folded centring errs by about eps |L_i^-1 (x - c)|
    in W_i, not eps |W_i|: harmless for the Gaussian, whose log generator
    is linear in t, and with c the data mean it does not grow with a
    translation of the data.  One stacked ``eigh`` floors the eigenvalues
    of all k scatters, and the next model is rebuilt from them and
    admitted with its floored lam, with no further check; its smallest
    floored eigenvalue is also the health record's.  A reseeded component takes an isotropic scatter.
    Data whose covariance overflows are refused with ``MismatchError``.  A
    non-finite NLL ends the fit, ``failed``, with the model that gave it.
    """
    if model0.family != families.gaussian(model0.m):
        raise MismatchError("the EM baseline supports the Gaussian family only")
    dataset = as_dataset(data, model0.m)
    samples = dataset.samples
    n, m = samples.shape
    k = model0.k
    rng = np.random.default_rng(cfg.seed)

    data_cov_trace = _covariance_trace(dataset)
    floor = 1e-6 * data_cov_trace / m
    iso = np.eye(m) * data_cov_trace / m

    # one copy of the samples per fit: contiguous (m + 1, b) blocks of the
    # samples less their mean, over a row of ones
    centre = samples.mean(axis=0)
    blocks = []
    for xb in column_blocks(samples):
        xc = np.ones((m + 1, xb.shape[1]))
        np.subtract(xb, centre[:, None], out=xc[:m])
        blocks.append(xc)
    buffers = BlockBuffers(k, m, blocks[0].shape[1])

    report = FitReport._start(model0, cfg)
    prev_nll = np.inf
    model = model0
    for h in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        chol, inv_chol, offset = model._kernel()
        # takes a block column [x - centre; 1] to L_i^-1 (x - mu_i)
        whiten = np.concatenate([inv_chol, -inv_chol @ (model.mus - centre)[:, :, None]], axis=2)
        # N_i and [S_i | s_i] of the docstring
        mass, moments = np.zeros(k), np.zeros((k, m, m + 1))
        log_lik = 0.0
        for xc in blocks:
            weighted, white, t = buffers.views(xc.shape[1])
            for i in range(k):
                np.matmul(whiten[i], xc, out=white[i, :m])
            # E-step: the log densities become the responsibilities in place
            resp = model._block_logdens(white, offset, t)
            log_lik += normalize_columns(resp).sum()
            mass += resp.sum(axis=1)
            for i in range(k):
                np.multiply(white[i, :m], resp[i], out=weighted)
                moments[i] += weighted @ white[i].T
        nll = -log_lik / n
        if not np.isfinite(nll):
            # no M-step from it: the fit ends here, with the last model
            report.failure_reason = f"non-finite NLL at iteration {h}"
            report._record(nll, PdPoint(model.sigmas), tic)
            break

        # M-step from the whitened sums
        weights = mass / n
        mus = np.empty((k, m))
        covs = np.empty((k, m, m))
        collapsed = mass < 1e-8
        for i in range(k):
            if collapsed[i]:
                report.events.append(f"iter {h}: component {i} collapsed, reseeded")
                mus[i] = samples[rng.integers(n)]
                covs[i] = iso
                weights[i] = 1.0 / k
                continue
            d = moments[i, :, m] / mass[i]
            mus[i] = model.mus[i] + chol[i] @ d
            covs[i] = chol[i] @ (moments[i, :, :m] / mass[i] - np.outer(d, d)) @ chol[i].T
        weights = weights / weights.sum()
        lam, q = np.linalg.eigh(0.5 * (covs + np.swapaxes(covs, 1, 2)))
        lam = np.maximum(lam, floor)
        sigmas = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        sigmas[collapsed] = iso
        lam[collapsed] = iso[0, 0]
        # Admitted without check_spd.  Every floored eigenvalue is at least
        # 1e-6 D / m, D the data covariance trace, while PD_FLOOR asks for
        # 1e-10 tr(Sigma_i) / m; the rebuild q diag(lam) q^T moves the
        # eigenvalues by about m eps tr(Sigma_i).  So the rebuilt scatter
        # clears the PD floor unless its trace exceeds D about 1e4-fold, and
        # the final model below is still checked from plain arrays.
        points = PdPoint._admitted(sigmas, lam)
        model = MixtureModel(model0.family, weights, mus, points)

        report._record(nll, points, tic)
        if abs(prev_nll - nll) < cfg.em_tol:
            break
        prev_nll = nll

    final = MixtureModel(model0.family, model.weights, model.mus, model.sigmas)
    return report._end(final)


def initialize(data, k: int, family, strategy: str, rng: np.random.Generator) -> MixtureModel:
    """Random starting point drawn from rng by ``strategy``, ``random`` or
    ``kmeanspp-lite``: simplex weights, box-uniform or D^2-weighted
    locations, isotropic scatters carrying the data covariance trace.

    ``kmeanspp-lite`` is the D^2 seeding of k-means++: the first location
    is a uniformly drawn row, and each next one a row drawn with
    probability proportional to its squared distance d2 to the nearest
    location so far.  d2 is kept as a running minimum, so the k - 1 draws
    cost k - 1 passes over the samples, each one ``families.min_sq_dist``
    call: block by block, the rows' differences to the newest location are
    squared, summed in numpy's pairwise order and folded into d2, so d2 has
    the bits of ``np.sum((samples - c) ** 2, axis=1)`` on C-ordered rows
    whatever the layout of the samples, and no (n, m) buffer is made.  Data
    with fewer than k distinct rows leave no mass to draw from, data whose
    squared distances overflow leave no finite mass, data whose covariance
    trace is 0 leave the isotropic scatters singular, and data whose
    covariance overflows leave them infinite; each raises ``MismatchError``,
    as does a k that is not a positive integer.
    """
    k = _integer(k, "k", MismatchError, 1)
    dataset = as_dataset(data, family.m)
    samples = dataset.samples
    n, m = samples.shape
    if n < k:
        raise MismatchError(f"need at least k={k} samples, got {n}")

    pi = rng.dirichlet(np.ones(k))
    trace = _covariance_trace(dataset)
    if strategy == "random":
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        mus = rng.uniform(lo, hi, size=(k, m))
    elif strategy == "kmeanspp-lite":
        rows = [rng.integers(n)]
        d2 = np.full(n, np.inf)
        for _ in range(k - 1):
            # a covariance that fits the float range can still leave squared
            # distances that do not; the sum is refused below, not warned on
            with np.errstate(over="ignore"):
                families.min_sq_dist(samples, samples[rows[-1]], d2)
                total = d2.sum()
            if total == 0.0:
                distinct = len(np.unique(samples, axis=0))
                raise MismatchError(
                    f"kmeanspp-lite needs k={k} distinct rows; the data has {distinct}"
                )
            if not np.isfinite(total):
                raise _overflow_error("the squared distances of kmeanspp-lite overflow", samples)
            rows.append(rng.choice(n, p=d2 / total))
        mus = samples[rows]
    else:
        raise MismatchError(f"unknown initialization strategy {strategy!r}")
    # after the draws, so the distinct-row refusal above keeps its message
    if not trace > 0.0:
        raise MismatchError(
            f"{strategy} start needs data with spread; the covariance trace of the {n} rows is {trace}"
        )
    iso = np.eye(m) * trace / m
    return MixtureModel(family, pi, mus, np.stack([iso.copy() for _ in range(k)]))
