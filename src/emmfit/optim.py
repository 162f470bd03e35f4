"""Fitting loops.

Three stochastic Riemannian methods share one engine: per iteration one
random unit projection is drawn, the semi-discrete 1-D cost and its
Euclidean gradients are formed, converted to tangent directions, and the
parameters move through the manifold retractions.  They differ only in
how the scatter step is scaled: plain steps (vanilla), element-wise
adaptive moments (radam, the baseline whose matrix handling the
direction-wise method improves on), or the direction-wise accumulator
(dadam).  All k scatters take one step together: their moments are
(k, m, m) stacks, and one ``manifold.exp_sigma`` call retracts the whole
stack, capping and halving each step as it needs.  Each thing is decided
once: the samples are validated at the ``fit`` boundary and their
covariance, which sets every direction's grid margin, is taken once per
fit; each step's model is built from the ``PdPoint`` the retraction
admitted, so no scatter is checked again inside the loop.  A fit ends,
``failed``, at the first iteration whose projection fails or whose
retraction leaves a scatter on the PD floor after every halving.  An EM
baseline covers the Gaussian family: its E-step runs the batched density
kernel of ``MixtureModel.component_logpdf`` on the samples in (m, n)
layout, and its E- and M-steps reuse two (m, n) buffers allocated once
per fit.  A fit has the seven settings of ``OptimizerConfig`` and no
others.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import families, manifold, transport
from .errors import EmmfitError, MismatchError, UnsupportedGradientError
from .gradients import euclidean_grad
from .manifold import PdPoint, SpherePoint
from .mixture import MixtureModel, as_samples, normalize_columns, sample_covariance

METHODS = ("vanilla", "radam", "dadam", "em")

# Added under every adaptive square root.
EPS_ADP = 1e-12
# Floor on the weight square roots after a sphere step so weights stay positive.
SQRTPI_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """The seven settings of one fit."""

    method: str = "dadam"  # one of METHODS
    alpha: float = 0.1  # stepsize
    beta1: float = 0.9  # first-moment decay (radam, dadam)
    beta2: float = 0.999  # second-moment decay (radam, dadam)
    max_iters: int = 2000
    seed: int = 0  # projection stream; EM's collapse reseeding
    em_tol: float = 1e-8  # EM stops once its NLL moves by less than this

    def __post_init__(self):
        if self.method not in METHODS:
            raise MismatchError(f"unknown method {self.method!r}")
        if not self.alpha >= 0.0:
            raise MismatchError("alpha must be nonnegative")
        if not 0.0 <= self.beta2 < 1.0:
            raise MismatchError("beta2 must lie in [0, 1)")
        if self.max_iters < 1:
            raise MismatchError("max_iters must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FitReport:
    """Per-iteration trace and the final model of one fitting run."""

    method: str
    final_model: MixtureModel
    costs: np.ndarray  # objective trace (sliced cost; NLL for EM)
    wall_ms: np.ndarray
    weight_gap: np.ndarray  # per-iteration |sum(pi) - 1|
    min_eig_ratio: np.ndarray  # per-iteration min_i lambda_min / (tr/m)
    events: list = field(default_factory=list)
    failed: bool = False
    failure_reason: str | None = None
    seed: int | None = None
    config: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.costs)

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "schema_version": 1,
            "method": self.method,
            "iterations": self.iterations,
            "failed": self.failed,
            "failure_reason": self.failure_reason,
            "events": list(self.events),
            "seed": self.seed,
            "config": self.config,
            "final_cost": None if self.iterations == 0 else float(self.costs[-1]),
            "final_model": self.final_model.to_dict(),
        }
        if include_timing:
            doc["wall_ms_total"] = float(np.sum(self.wall_ms))
        return doc


class _VectorAdamState:
    """Element-wise adaptive moments with the running max of the second."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.vhat = np.zeros(shape)

    def update(self, grad, carried, beta1: float, beta2: float):
        """Blend the carried first moment with grad; return (m, denominator)."""
        self.m = beta1 * carried + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad**2
        self.vhat = np.maximum(self.vhat, self.v)
        return self.m, np.sqrt(self.vhat + EPS_ADP)


class _ScatterMoments:
    """The (k, m, m) scatter momenta u, carried between iterates by vector
    transport, and their second moments: the running max of v entry by entry
    (radam, (k, m, m)) or of the directional p' v p (dadam, (k,))."""

    def __init__(self, k: int, m: int, elementwise: bool):
        self.elementwise = elementwise
        self.u = np.zeros((k, m, m))
        self.v = np.zeros((k, m, m))
        self.second = np.zeros((k, m, m) if elementwise else k)
        self.prev_point: PdPoint | None = None

    def step(self, point: PdPoint, rgrad, g_sigma, p, alpha: float, beta1: float, beta2: float):
        if self.prev_point is None:
            carried = np.zeros_like(self.u)
        else:
            carried = manifold.transport_sigma(self.prev_point, point.sigma, self.u)
        self.u = beta1 * carried + (1.0 - beta1) * rgrad
        self.prev_point = point
        if self.elementwise:
            self.v = beta2 * self.v + (1.0 - beta2) * g_sigma**2
            self.second = np.maximum(self.second, self.v)
            step = -alpha * self.u / np.sqrt(self.second + EPS_ADP)
            return 0.5 * (step + np.swapaxes(step, 1, 2))
        self.v = beta2 * self.v + (1.0 - beta2) * (g_sigma @ np.swapaxes(g_sigma, 1, 2))
        # row by row: a stacked (p @ v) @ p rounds differently from p @ v_i @ p
        directional = np.array([row @ p for row in p @ self.v])
        self.second = np.maximum(directional, self.second)
        return -alpha * self.u / np.sqrt(self.second + EPS_ADP)[:, None, None]


def _fit_manifold(model0: MixtureModel, data, cfg: OptimizerConfig, rng: np.random.Generator) -> FitReport:
    samples = as_samples(data, model0.m)
    cov = sample_covariance(samples)
    family = model0.family
    k, m = model0.k, model0.m
    method = cfg.method
    alpha, beta1, beta2 = cfg.alpha, cfg.beta1, cfg.beta2

    sphere = manifold.sphere_from_weights(model0.weights)
    mus = model0.mus.copy()
    points = PdPoint(model0.sigmas)

    scatter = _ScatterMoments(k, m, elementwise=method == "radam")
    pi_state = _VectorAdamState(k)
    mu_state = _VectorAdamState((k, m))

    H = cfg.max_iters
    costs = np.full(H, np.nan)
    wall = np.zeros(H)
    weight_gap = np.zeros(H)
    min_eig_ratio = np.zeros(H)
    events: list = []
    failed = False
    reason = None

    current = model0
    done = 0
    for h in range(1, H + 1):
        tic = time.perf_counter()
        # one direction per step; seeded fits depend on this exact draw
        p = transport.random_projections(m, 1, rng)[0]
        try:
            ctx = transport.make_projection_context(p, samples, cov=cov)
            projected = transport.project_model(current, ctx)
            cost = transport.projected_w2(ctx, projected)
            grad = euclidean_grad(current, ctx, projected)
        except EmmfitError as exc:
            # nothing to step along: the fit ends at this iteration
            events.append(f"iter {h}: projection failed ({exc})")
            failed, reason = True, f"projection failure at iteration {h}"
            cost, stop = np.nan, True
        else:
            if not np.isfinite(cost):
                failed, reason = True, f"non-finite cost at iteration {h}"

            # ---- weights on the sphere
            tangent = manifold.project_sphere_grad(sphere, grad.g_sqrtpi)
            if method == "radam":
                carried = manifold.project_sphere_grad(sphere, pi_state.m)
                moment, denom = pi_state.update(tangent, carried, beta1, beta2)
                step = manifold.project_sphere_grad(sphere, moment / denom)
            else:
                step = tangent
            new_sphere = manifold.exp_sphere(sphere, alpha * step)
            for i in np.flatnonzero(new_sphere.s < SQRTPI_FLOOR):
                events.append(f"iter {h}: weight floor for component {i}")
            clamped = np.maximum(new_sphere.s, SQRTPI_FLOOR)
            sphere = SpherePoint(clamped / np.linalg.norm(clamped))

            # ---- locations in Euclidean space
            if method == "radam":
                moment, denom = mu_state.update(grad.g_mu, mu_state.m, beta1, beta2)
                mus = mus - alpha * moment / denom
            else:
                mus = mus - alpha * grad.g_mu

            # ---- scatters on the PD manifold, all k in one step
            rgrad = manifold.riem_grad_sigma(points, grad.g_sigma)
            if method == "vanilla":
                step = -alpha * rgrad
            else:
                step = scatter.step(points, rgrad, grad.g_sigma, p, alpha, beta1, beta2)
            points, halvings = manifold.exp_sigma(points, step)
            exhausted = halvings > manifold.PD_RETRIES
            for i in np.flatnonzero((halvings > 0) & ~exhausted):
                events.append(f"iter {h}: step halved {halvings[i]}x for component {i}")
            # a scatter that no halving lifts off the floor ends the fit at
            # this iteration, with the model this step reached
            for i in np.flatnonzero(exhausted):
                events.append(f"iter {h}: pd safeguard exhausted for component {i}")
                failed, reason = True, f"pd safeguard exhausted at iteration {h}"
            stop = bool(exhausted.any())

            current = MixtureModel(family, sphere.weights, mus, points)

        costs[h - 1] = cost
        weight_gap[h - 1] = abs(float(np.sum(current.weights)) - 1.0)
        min_eig_ratio[h - 1] = np.min(points.lam[:, 0] / (np.trace(points.sigma, axis1=1, axis2=2) / m))
        wall[h - 1] = 1e3 * (time.perf_counter() - tic)
        done = h
        if stop:
            break

    return FitReport(
        method=cfg.method,
        final_model=current,
        costs=costs[:done],
        wall_ms=wall[:done],
        weight_gap=weight_gap[:done],
        min_eig_ratio=min_eig_ratio[:done],
        events=events,
        failed=failed,
        failure_reason=reason,
        seed=cfg.seed,
        config=cfg.to_dict(),
    )


def fit(model0, data, cfg: OptimizerConfig, rng=None) -> FitReport:
    """Fit by cfg.method from model0; the Riemannian methods need gradients."""
    if cfg.method == "em":
        return fit_em_gmm(model0, data, cfg)
    if not model0.family.has_gradient:
        family = model0.family
        raise UnsupportedGradientError(
            f"{family.name} {family.params()} has no sliced-cost gradient for {cfg.method}"
        )
    return _fit_manifold(model0, data, cfg, rng or np.random.default_rng(cfg.seed))


def _is_gaussian(family) -> bool:
    return (
        isinstance(family, families.Kotz)
        and family.a == 1.0
        and family.s == 1.0
        and family.b == 0.5
    )


def fit_em_gmm(model0: MixtureModel, data, cfg: OptimizerConfig) -> FitReport:
    """Standard EM with a covariance eigenvalue floor and collapse reseeding.

    The samples are copied once into a contiguous (m, n) array x^T, and two
    (m, n) work buffers are allocated once per fit.  The E-step runs the
    batched kernel of ``MixtureModel.component_logpdf`` on them; the
    responsibilities then overwrite the (k, n) log densities in place, from
    the one ``exp`` that their log-sum-exp takes (``normalize_columns``).  In
    the M-step each component's centred samples and their
    responsibility-weighted copy reuse the two buffers, so its scatter is
    one (m x n) @ (n x m) product, and one stacked ``eigh`` floors the
    eigenvalues of all k scatters, whose smallest floored eigenvalue is
    also the health record's; a reseeded component keeps its isotropic
    scatter.
    """
    if not _is_gaussian(model0.family):
        raise MismatchError("the EM baseline supports the Gaussian family only")
    samples = as_samples(data, model0.m)
    n, m = samples.shape
    k = model0.k
    rng = np.random.default_rng(cfg.seed)

    data_cov_trace = float(np.trace(sample_covariance(samples)))
    floor = 1e-6 * data_cov_trace / m
    iso = np.eye(m) * data_cov_trace / m

    weights = model0.weights.copy()
    mus = model0.mus.copy()
    sigmas = model0.sigmas.copy()
    # one contiguous (m, n) copy: centring a transposed view reads it
    # across rows, about four times slower per pass
    xt = np.ascontiguousarray(samples.T)
    diff = np.empty((m, n))
    wdiff = np.empty((m, n))
    covs = np.empty((k, m, m))

    H = cfg.max_iters
    nll_trace = np.full(H, np.nan)
    wall = np.zeros(H)
    weight_gap = np.zeros(H)
    min_eig_ratio = np.zeros(H)
    events: list = []
    reason = None
    prev_nll = np.inf
    done = 0

    for h in range(1, H + 1):
        tic = time.perf_counter()
        model = MixtureModel(model0.family, weights, mus, sigmas)
        # E-step: the log densities become the responsibilities in place
        resp = model._weighted_logdens(xt, diff, wdiff)
        nll = float(-np.mean(normalize_columns(resp)))
        nll_trace[h - 1] = nll
        if reason is None and not np.isfinite(nll):
            reason = f"non-finite NLL at iteration {h}"

        # M-step
        mass = resp.sum(axis=1)
        collapsed = mass < 1e-8
        for i in range(k):
            if collapsed[i]:
                events.append(f"iter {h}: component {i} collapsed, reseeded")
                mus[i] = samples[rng.integers(n)]
                covs[i] = iso
                weights[i] = 1.0 / k
                continue
            weights[i] = mass[i] / n
            mus[i] = resp[i] @ samples / mass[i]
            np.subtract(xt, mus[i][:, None], out=diff)
            np.multiply(diff, resp[i], out=wdiff)
            covs[i] = wdiff @ diff.T / mass[i]
        # drop the (k, n) arrays before the next E-step allocates its own
        del resp
        weights = weights / weights.sum()
        lam, q = np.linalg.eigh(0.5 * (covs + np.swapaxes(covs, 1, 2)))
        lam = np.maximum(lam, floor)
        sigmas = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        sigmas[collapsed] = iso
        # the floored eigenvalues are the new scatters' (up to rounding)
        lam[collapsed] = iso[0, 0]

        weight_gap[h - 1] = abs(float(weights.sum()) - 1.0)
        min_eig_ratio[h - 1] = np.min(lam[:, 0] / (np.trace(sigmas, axis1=1, axis2=2) / m))
        wall[h - 1] = 1e3 * (time.perf_counter() - tic)
        done = h
        if abs(prev_nll - nll) < cfg.em_tol:
            break
        prev_nll = nll

    final = MixtureModel(model0.family, weights, mus, sigmas)
    return FitReport(
        method="em",
        final_model=final,
        costs=nll_trace[:done],
        wall_ms=wall[:done],
        weight_gap=weight_gap[:done],
        min_eig_ratio=min_eig_ratio[:done],
        events=events,
        failed=reason is not None,
        failure_reason=reason,
        seed=cfg.seed,
        config=cfg.to_dict(),
    )


def initialize(data, k: int, family, strategy: str = "random", rng=None) -> MixtureModel:
    """Random starting point: simplex weights, box-uniform or D^2-weighted
    locations, isotropic scatters carrying the data covariance trace."""
    samples = as_samples(data, family.m)
    n, m = samples.shape
    if n < k:
        raise MismatchError(f"need at least k={k} samples, got {n}")
    rng = rng or np.random.default_rng(0)

    pi = rng.dirichlet(np.ones(k))
    iso = np.eye(m) * float(np.trace(sample_covariance(samples))) / m
    if strategy == "random":
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        mus = rng.uniform(lo, hi, size=(k, m))
    elif strategy == "kmeanspp-lite":
        chosen = [samples[rng.integers(n)]]
        for _ in range(k - 1):
            d2 = np.min(
                [np.sum((samples - c) ** 2, axis=1) for c in chosen], axis=0
            )
            probs = d2 / d2.sum()
            chosen.append(samples[rng.choice(n, p=probs)])
        mus = np.array(chosen)
    else:
        raise MismatchError(f"unknown initialization strategy {strategy!r}")
    return MixtureModel(family, pi, mus, np.stack([iso.copy() for _ in range(k)]))
