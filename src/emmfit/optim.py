"""Fitting loops.

Three stochastic Riemannian methods share one engine, ``_fit_manifold``:
each iteration takes the sliced cost along one random direction and its
Euclidean gradient triple from ``_direction_source``, and
``_ManifoldStep`` moves the parameters through the manifold retractions
(its docstring sets out the iteration).  The methods differ only in which
factors scale their steps by a moment, one scalar second moment per factor
(``_FactorMoments``, Riemannian AMSGrad after Becigneul & Ganea, ICLR
2019), as the table ``MOMENTS`` lists: none (vanilla), the scatters
(dadam, whose weights and locations step plainly) or all three (radam).
An EM baseline covers the Gaussian family (``fit_em_gmm``).  Both engines
write one record, ``FitReport``: it appends each iteration's cost and
health as the iteration ends, and names the failure that ended the fit.

Validation stays where data and models enter (``fit``, the public
constructors, ``families.check_spd``).  The samples are validated at the
``fit`` boundary, and their covariance, which sets every direction's grid
margin, is taken once per ``Dataset`` (``Dataset.covariance``, which
refuses one that overflows), so the starts and fits of one data set share
it.  Inside the loop a step trusts what it built: the source hands it the
triple that ``gradients.euclidean_grad`` made, as it was made.  A fit
depends on its start, its data and the five settings of
``OptimizerConfig`` (the moment decays are the constants ``BETA1`` and
``BETA2``) and nothing else: each engine draws from
``np.random.default_rng(cfg.seed)``, so
``fit(model0, data, OptimizerConfig(**report.config))`` rebuilds a fit
from its record.
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
    _overflow_error,
    as_dataset,
    column_blocks,
    normalize_columns,
)

# The factors whose steps each manifold method scales by a moment; the
# others step along their plain gradients.  EM is the one other method.
MOMENTS = {"vanilla": (), "dadam": ("scatters",), "radam": ("weights", "locations", "scatters")}
METHODS = (*MOMENTS, "em")

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
    alpha: float = 0.03  # stepsize
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
    """Riemannian AMSGrad moments of a stack of factors, one per row: the
    weight sphere (k,), the k locations (k, m), or the k scatters as their
    Lyapunov images flattened to (k, m^2), which a scalar scale carries
    through the Lyapunov solve.  Each factor keeps its first moment and the
    running max vhat of one scalar second moment, the decayed mean of its
    squared gradient norm, which no change of coordinates moves."""

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


def _direction_source(model: MixtureModel, dataset, rng: np.random.Generator) -> tuple[float, tuple]:
    """The semi-discrete cost of model along one direction drawn from rng,
    and the Euclidean triple that ``euclidean_grad`` returns for it
    (``_ManifoldStep`` says what it holds).  A projection that fails raises
    its ``EmmfitError``; a triple that is not finite is returned unwarned."""
    # one direction per step; seeded fits depend on this exact draw
    p = transport._draw_projections(model.m, 1, rng)[0]
    ctx = transport.make_projection_context(p, dataset)
    projected = transport.project_model(model, ctx)
    cost = transport.projected_w2(ctx, projected)
    return cost, euclidean_grad(model, ctx, projected)


class _ManifoldStep:
    """One step of a manifold fit along a Euclidean triple, and the model it
    reaches (``model``, with its scatters ``points``).

    Each iteration of ``_fit_manifold`` runs source, check, step, record.
    The source (``_direction_source``) gives the cost of ``model`` and its
    Euclidean triple: the sqrt-weight gradient (k,), the location gradient
    (k, m) and the scatter image g_sigma, a dense (k, m, m) stack.  A failed
    projection, or a cost or triple that is not finite, ends the fit before
    its step.  Calling the step moves along the triple, and
    ``FitReport._record`` appends the cost and the health of ``points``.
    Any source of such a triple drives the step unchanged.

    The weight square roots step on the sphere, the locations in Euclidean
    space, and all k scatters in one ``manifold.exp_sigma`` call along
    their Lyapunov images U = L_Sigma[u], the coordinates in which vector
    transport is the identity and the Riemannian gradient's image is
    g_sigma itself.  The factors ``MOMENTS`` names step by -alpha m /
    sqrt(vhat) with one scalar vhat per factor (``_FactorMoments``), and a
    scalar scale commutes with the solve, so no step makes a Lyapunov solve
    or needs an eigenbasis.  A weight square root below SQRTPI_FLOOR is
    floored, an event, and the sphere renormalised; each halving of a
    scatter step is an event too.  A step that leaves a weight, location or
    scatter image that is not finite ends the fit with the model it started
    from; a scatter left on the PD floor after every halving ends it with
    the model it reached, built from the ``PdPoint`` the retraction
    admitted and not checked again.  Events go to ``events``."""

    def __init__(self, model0: MixtureModel, cfg: OptimizerConfig, events: list):
        k, m = model0.k, model0.m
        shapes = {"weights": (k,), "locations": (k, m), "scatters": (k, m * m)}
        self.moments = {name: _FactorMoments(shapes[name]) for name in MOMENTS[cfg.method]}
        self.alpha, self.events = cfg.alpha, events
        self.model, self.mus = model0, model0.mus.copy()
        self.sphere, self.points = manifold.sphere_from_weights(model0.weights), PdPoint(model0.sigmas)

    def __call__(self, h: int, g_sqrtpi, g_mu, g_sigma) -> str | None:
        """Step along a finite triple at iteration h; return the failure
        that ends the fit here, or None."""
        k, m = g_mu.shape
        steps = {
            "weights": manifold.project_sphere_grad(self.sphere, g_sqrtpi),
            "locations": g_mu,
            "scatters": g_sigma.reshape(k, m * m),
        }
        for name, moment in self.moments.items():
            # the sphere's first moment is carried by projection and, scaled
            # by a scalar, stays tangent; the other factors carry theirs
            # unchanged
            carried = manifold.project_sphere_grad(self.sphere, moment.m) if name == "weights" else moment.m
            steps[name] = moment.step(steps[name], carried)
        with np.errstate(over="ignore", invalid="ignore"):
            s = manifold.exp_sphere(self.sphere, self.alpha * steps["weights"])
            mus = self.mus - self.alpha * steps["locations"]
            lyap = -self.alpha * steps["scatters"].reshape(k, m, m)
        if not (np.isfinite(s).all() and np.isfinite(mus).all() and np.isfinite(lyap).all()):
            return "non-finite step"
        low = s < SQRTPI_FLOOR
        if low.any():
            for i in np.flatnonzero(low):
                self.events.append(f"iter {h}: weight floor for component {i}")
            s = np.maximum(s, SQRTPI_FLOOR)
        # renormalised whether or not a weight was floored
        self.sphere, self.mus = s / manifold._norm(s), mus
        self.points, halvings = manifold.exp_sigma(self.points, lyap)
        failure = None
        if halvings.any():
            exhausted = halvings > manifold.PD_RETRIES
            for i in np.flatnonzero(~exhausted & (halvings > 0)):
                self.events.append(f"iter {h}: step halved {halvings[i]}x for component {i}")
            for i in np.flatnonzero(exhausted):
                self.events.append(f"iter {h}: pd safeguard exhausted for component {i}")
                failure = "pd safeguard exhausted"
        self.model = MixtureModel(self.model.family, self.sphere * self.sphere, mus, self.points)
        return failure


def _iterate(step: _ManifoldStep, dataset, rng: np.random.Generator, h: int) -> tuple[float, str | None]:
    """Iteration h of a manifold fit: its cost, and the failure that ends the fit there or None."""
    try:
        cost, triple = _direction_source(step.model, dataset, rng)
    except EmmfitError as exc:
        step.events.append(f"iter {h}: projection failed ({exc})")
        return math.nan, "projection failure"
    if not (math.isfinite(cost) and all(np.isfinite(g).all() for g in triple)):
        return cost, "non-finite cost or gradient"
    return cost, step(h, *triple)


def _fit_manifold(model0: MixtureModel, data, cfg: OptimizerConfig) -> FitReport:
    dataset = as_dataset(data, model0.m)
    dataset.covariance  # refuses a covariance that overflows, before the loop
    rng = np.random.default_rng(cfg.seed)
    report = FitReport(model0, config=cfg.to_dict())
    step = _ManifoldStep(model0, cfg, report.events)
    for h in range(1, cfg.max_iters + 1):
        tic = time.perf_counter()
        cost, failure = _iterate(step, dataset, rng, h)
        report._record(cost, step.points, tic)
        if failure is not None:
            report.failure_reason = f"{failure} at iteration {h}"
            break
    return report._end(step.model)


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

    data_cov_trace = float(np.trace(dataset.covariance))
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

    report = FitReport(model0, config=cfg.to_dict())
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
        lam, q = np.linalg.eigh(manifold._sym(covs))
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
    trace = float(np.trace(dataset.covariance))
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
