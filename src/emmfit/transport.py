"""Distance machinery.

Three layers: the closed-form Wasserstein distance between two elliptical
laws, the matching-based approximate distance between mixtures, and the
sliced semi-discrete objective (projected model density vs. the empirical
measure on one direction), evaluated in closed form in the quantile domain.
The empirical quantile function is read straight from the sorted
projections and their prefix sum, at the few levels the cost and its
gradient ask for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateGridError, MismatchError, UndefinedSecondMomentError
from .families import EllipticalComponent
from .mixture import MixtureModel, as_dataset

K_EXACT = 8  # permutations are enumerated exactly up to this many components


def _sqrtm_spd(sigma: np.ndarray) -> np.ndarray:
    lam, q = np.linalg.eigh(sigma)
    return (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T


def bures_gap(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2)), clipped at zero."""
    root = _sqrtm_spd(sigma1)
    inner = root @ sigma2 @ root
    lam = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)
    gap = float(np.trace(sigma1) + np.trace(sigma2) - 2.0 * np.sum(np.sqrt(lam)))
    return max(gap, 0.0)


def w2_elliptical(
    c1: EllipticalComponent, c2: EllipticalComponent, unit_weight: bool = False
) -> float:
    """Squared Wasserstein distance between two same-family elliptical laws.

    The scatter term carries the E[R^2]/m weight; for families without a
    second moment the caller must opt into ``unit_weight``.
    """
    if c1.family != c2.family:
        raise MismatchError("components must share one family (and dimension)")
    if unit_weight:
        weight = 1.0
    else:
        mean_r2 = c1.family.mean_r2()
        if mean_r2 is None:
            raise UndefinedSecondMomentError(
                f"{c1.family.name} has no finite E[R^2]; pass unit_weight=True"
            )
        weight = mean_r2 / c1.family.m
    # Canonical operand order makes the value bitwise symmetric despite the
    # asymmetric Bures evaluation.
    if (c2.mu.tobytes() + c2.sigma.tobytes()) < (c1.mu.tobytes() + c1.sigma.tobytes()):
        c1, c2 = c2, c1
    delta = c1.mu - c2.mu
    return float(delta @ delta) + weight * bures_gap(c1.sigma, c2.sigma)


@dataclass(frozen=True)
class TransportPlan:
    """A bijective component matching with its objective decomposition."""

    permutation: np.ndarray  # component i of the first mixture -> permutation[i]
    cost: float  # full objective value at this matching
    probability_term: float  # the arccos summand

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=int)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise MismatchError("not a permutation")
        object.__setattr__(self, "permutation", perm)


def _pairwise_w2(model1: MixtureModel, model2: MixtureModel, unit_weight: bool) -> np.ndarray:
    k = model1.k
    cost = np.empty((k, k))
    for i in range(k):
        ci = model1.component(i)
        for j in range(k):
            cost[i, j] = w2_elliptical(ci, model2.component(j), unit_weight=unit_weight)
    return cost


def _matching_objective(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray, perm) -> tuple[float, float]:
    k = cost.shape[0]
    idx = np.arange(k)
    transport = float(cost[idx, perm].sum()) / k
    # arccos(sum_i sqrt(pi_1i pi_2sigma(i))) evaluated as the great-circle
    # angle 2 arcsin(|s1 - s2 o sigma| / 2); near-1 overlaps would lose all
    # precision inside arccos and the identity axiom asks for exact zero.
    gap = float(np.linalg.norm(sq1 - sq2[perm]))
    angle = 2.0 * float(np.arcsin(0.5 * gap))
    return transport + angle, angle


def _solve_matching(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray) -> tuple[float, np.ndarray, float]:
    k = cost.shape[0]
    if k <= K_EXACT:
        best = (np.inf, None, 0.0)
        for perm in itertools.permutations(range(k)):
            perm = np.array(perm)
            value, angle = _matching_objective(cost, sq1, sq2, perm)
            if value < best[0]:
                best = (value, perm, angle)
        return best
    # Stage 1: assignment on the transport matrix alone; stage 2: pairwise
    # swaps on the full objective (the arccos term couples the matching).
    _, perm = linear_sum_assignment(cost)
    perm = np.asarray(perm)
    value, angle = _matching_objective(cost, sq1, sq2, perm)
    improved = True
    while improved:
        improved = False
        for i in range(k):
            for j in range(i + 1, k):
                cand = perm.copy()
                cand[i], cand[j] = cand[j], cand[i]
                cand_value, cand_angle = _matching_objective(cost, sq1, sq2, cand)
                if cand_value < value - 1e-15:
                    value, perm, angle = cand_value, cand, cand_angle
                    improved = True
    return value, perm, angle


def _model_key(model: MixtureModel) -> bytes:
    return (
        model.weights.tobytes()
        + model.mus.tobytes()
        + model.sigmas.tobytes()
        + repr(model.family).encode()
    )


def d_u(
    model1: MixtureModel, model2: MixtureModel, unit_weight: bool = False
) -> tuple[float, TransportPlan]:
    """Approximate mixture distance: best bijective matching of components.

    Minimizes (1/k) sum of matched component W2 values plus
    arccos(sum of matched sqrt(pi_i pi_j)).  Exact by enumeration for
    k <= 8, two-stage heuristic beyond.  Symmetric bitwise: the operand
    pair is ordered canonically before solving.
    """
    if model1.k != model2.k or model1.m != model2.m or model1.family != model2.family:
        raise MismatchError("mixtures must agree in k, m and family")
    swapped = _model_key(model2) < _model_key(model1)
    lo, hi = (model2, model1) if swapped else (model1, model2)
    cost = _pairwise_w2(lo, hi, unit_weight)
    sq1 = np.sqrt(lo.weights)
    sq2 = np.sqrt(hi.weights)
    sq1 /= np.linalg.norm(sq1)
    sq2 /= np.linalg.norm(sq2)
    value, perm, angle = _solve_matching(cost, sq1, sq2)
    if swapped:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        perm = inverse
    return value, TransportPlan(perm, value, angle)


def _check_unit(p: np.ndarray) -> None:
    if abs(np.linalg.norm(p) - 1.0) > 1e-12:
        raise MismatchError("projection direction must be unit norm")


@dataclass(frozen=True)
class ProjectionContext:
    """One random direction: sorted projected data and the quadrature grid.

    The empirical quantile function Q of the n sorted projections x is
    piecewise linear with knot j at level (j + 1/2)/n and value x[j], and
    flat outside [1/(2n), 1 - 1/(2n)].  Q and its prefix integral are read
    from x by index arithmetic, so the only per-direction table is the
    prefix sum of x, built on first use.

    A context built from outside checks that p is a unit vector and that
    the projections are sorted.  ``make_projection_context`` checks p and
    sorts the projections itself, so the context it returns is trusted
    and skips the O(n) sortedness re-scan (``_trusted``).
    """

    p: np.ndarray
    projected_samples: np.ndarray
    grid: np.ndarray
    grid_weights: np.ndarray

    def __post_init__(self):
        _check_unit(self.p)
        if np.any(np.diff(self.projected_samples) < 0.0):
            raise MismatchError("projected samples must be sorted")

    @classmethod
    def _trusted(cls, p, projected_samples, grid, grid_weights) -> "ProjectionContext":
        """A context over a unit p and projections already sorted, unchecked."""
        ctx = object.__new__(cls)
        ctx.__dict__.update(p=p, projected_samples=projected_samples, grid=grid, grid_weights=grid_weights)
        return ctx

    @cached_property
    def _prefix_sums(self) -> np.ndarray:
        # C[j] = x[0] + ... + x[j-1], with C[0] = 0
        x = self.projected_samples
        c = np.empty(x.size + 1)
        c[0] = 0.0
        np.cumsum(x, out=c[1:])
        return c

    def quantile_prefixes(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Q(q), S1(q)) with S1 = int_0^q Q; q is clipped to [0, 1]."""
        x = self.projected_samples
        c = self._prefix_sums
        n = x.size
        # t is q's position in knot units; knot i sits at t = i
        t = np.clip(q, 0.0, 1.0) * n - 0.5
        tau = np.clip(t, 0.0, n - 1)
        i = tau.astype(np.intp)
        f = tau - i
        x0 = x[i]
        # at the last knot f = 0, so its clipped neighbour adds nothing
        qv = x0 + (x[np.minimum(i + 1, n - 1)] - x0) * f
        # knots 0..i as trapezoids, the part of segment i up to tau, and the
        # flat run below the first knot or past the last one (t - tau)
        s1 = (c[i + 1] - 0.5 * x0 + 0.5 * f * (x0 + qv) + (t - tau) * qv) / n
        return qv, s1

    @property
    def quantile_second_moment(self) -> float:
        """int_0^1 Q(q)^2 dq, summed over Q's linear pieces in closed form."""
        x = self.projected_samples
        ends = x[0] * x[0] + x[-1] * x[-1]
        return float((2.0 / 3.0) * (x @ x) + ends / 6.0 + (x[:-1] @ x[1:]) / 3.0) / x.size


def make_projection_context(
    p: np.ndarray,
    samples: np.ndarray,
    n_grid: int = 1024,
    margin_sigmas: float = 4.0,
    *,
    cov: np.ndarray,
) -> ProjectionContext:
    """Project the data along the unit vector p and lay a uniform trapezoid
    grid over it, reaching margin_sigmas spreads past the extreme projections.

    The spread is the projections' standard deviation, read as
    sqrt(p' cov p) from the samples' biased covariance ``cov``
    (``mixture.sample_covariance``).  A caller projecting the same samples
    many times passes ``Dataset.covariance``, which each ``mixture.Dataset``
    computes once.  Constant projections fall back to a spread of
    max(1, |x|).  The context is built trusted: p is checked here and the
    projections are sorted here, so nothing is re-scanned.
    """
    p = np.asarray(p, dtype=float)
    _check_unit(p)
    samples = np.asarray(samples, dtype=float)
    projected = samples @ p
    projected.sort()
    var = float(p @ cov @ p)
    # constant projections have var 0, or a rounding-negative one
    spread = math.sqrt(var) if var > 0.0 else max(1.0, abs(float(projected[0])))
    lo = projected[0] - margin_sigmas * spread
    hi = projected[-1] + margin_sigmas * spread
    grid = np.linspace(lo, hi, n_grid)
    step = grid[1] - grid[0]
    weights = np.full(n_grid, step)
    weights[0] = weights[-1] = 0.5 * step
    return ProjectionContext._trusted(p, projected, grid, weights)


@dataclass(frozen=True)
class ProjectedMixture:
    """Per-component pieces of the projected model density on the grid.

    Node values are exact cell averages: the weight-free kernel
    (p' Sigma_i p)^(-1/2) c_m g(t_i) is integrated over each trapezoid
    cell as a difference of the family's primitive (``gen_primitive``: in
    closed form for the Gaussian, from a PCHIP table otherwise), so thin
    projected components (eccentric scatters) keep their mass even when
    narrower than the grid spacing.  Edge evaluations of the kernel and
    of its scale flux carry the exact cell integrals of the location and
    scatter derivatives.
    """

    kernels: np.ndarray  # (k, G)  cell-averaged weight-free kernel
    edge_kernel: np.ndarray  # (k, G+1)  kernel at cell edges
    edge_scale_flux: np.ndarray  # (k, G+1)  c_m g(u^2) u / (2 v) at cell edges
    rho: np.ndarray  # (G,)
    mass: float


def cell_edges(grid: np.ndarray) -> np.ndarray:
    """Midpoint cell edges whose widths equal the trapezoid weights."""
    return np.concatenate([[grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]])


def project_components(family, weights, mus, sigmas, ctx: ProjectionContext) -> ProjectedMixture:
    """Projected mixture pieces from raw parameter arrays.

    Weights need not sum to one here; renormalization by the grid mass is
    part of the objective, and finite-difference probes step off the
    simplex.
    """
    weights = np.asarray(weights, dtype=float)
    mus = np.asarray(mus, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    proj_var = np.einsum("i,kij,j->k", ctx.p, sigmas, ctx.p)
    if np.any(proj_var <= 0.0):
        raise DegenerateGridError("projected variance must be positive")
    root_v = np.sqrt(proj_var)
    edges = cell_edges(ctx.grid)
    edge_u = (edges[None, :] - (mus @ ctx.p)[:, None]) / root_v[:, None]
    # cell masses are mathematically nonnegative; a rounded primitive, closed
    # form or interpolated, can step down by an ulp in saturated tails
    kernels = np.maximum(np.diff(family.gen_primitive(edge_u), axis=1), 0.0) / ctx.grid_weights[None, :]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        gen_at_edges = family.gen_primitive_slope(edge_u)
        edge_kernel = gen_at_edges / root_v[:, None]
        edge_scale_flux = gen_at_edges * edge_u / (2.0 * proj_var[:, None])
    # Generator singularities (e.g. small-a Kotz at t=0) are dropped nodes.
    edge_kernel = np.where(np.isfinite(edge_kernel), edge_kernel, 0.0)
    edge_scale_flux = np.where(np.isfinite(edge_scale_flux), edge_scale_flux, 0.0)
    rho = weights @ kernels
    mass = float(ctx.grid_weights @ rho)
    if not np.isfinite(mass) or mass <= 1e-300:
        raise DegenerateGridError("projected model density has no mass on the grid")
    return ProjectedMixture(kernels, edge_kernel, edge_scale_flux, rho, mass)


def project_model(model: MixtureModel, ctx: ProjectionContext) -> ProjectedMixture:
    """Projected mixture density along ctx.p, per the manifold's projected form.

    The kernel is the m-dimensional generator c_m g(z^2) read along the
    line, normalizer included (not the family's 1-D marginal law), so the
    raw density carries a family-dependent constant mass; ``projected_w2``
    and the gradients renormalize by its mass on the grid.
    """
    return project_components(model.family, model.weights, model.mus, model.sigmas, ctx)


def projected_w2(ctx: ProjectionContext, projected: ProjectedMixture) -> float:
    """Exact semi-discrete cost of the cell-discretized projected model.

    Each cell's mass occupies a slab of quantile levels [a_j, a_(j+1)]; its
    transport cost to the empirical quantile function is, in closed form,
    int (y_j - Q(q))^2 dq = y_j^2 dm_j - 2 y_j dS1_j + int Q^2 over the slab.
    The slabs tile [0, 1], so the Q^2 terms add up to the one scalar
    int_0^1 Q^2.  Unlike pointwise trapezoid evaluation this keeps the
    within-cell spread cost, so components thinner than a grid cell cannot
    shed their transport cost by collapsing further.
    """
    masses = (projected.rho * ctx.grid_weights) / projected.mass
    bounds = np.empty(masses.size + 1)
    bounds[0] = 0.0
    np.cumsum(masses, out=bounds[1:])
    # exact ends: the slabs' Q^2 integrals add up to int_0^1 Q^2
    bounds[-1] = 1.0
    _, s1 = ctx.quantile_prefixes(bounds)
    y = ctx.grid
    return float(np.sum(y * y * masses - 2.0 * y * np.diff(s1))) + ctx.quantile_second_moment


def sliced_cost(model: MixtureModel, data, projections) -> float:
    """Average semi-discrete 1-D cost over the given unit projections, on the
    rows of a Dataset or of a raw (n, m) array given the Dataset checks."""
    dataset = as_dataset(data, model.m)
    samples, cov = dataset.samples, dataset.covariance
    total = 0.0
    count = 0
    for p in projections:
        ctx = make_projection_context(p, samples, cov=cov)
        total += projected_w2(ctx, project_model(model, ctx))
        count += 1
    if count == 0:
        raise MismatchError("need at least one projection")
    return total / count


def random_projections(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count unit vectors in R^m (deterministic given the generator state)."""
    p = rng.standard_normal((count, m))
    return p / np.linalg.norm(p, axis=1, keepdims=True)

