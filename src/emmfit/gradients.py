"""Euclidean gradients of the per-projection semi-discrete cost.

The cost's first variation in the projected density is the Kantorovich
potential: each parameter's gradient is the potential integrated against
the density derivative (weights through the projected kernel, locations
through the generator derivative times the offset, scatters as a scalar
weight on the rank-1 direction p p').  The integrals are evaluated in the
quantile domain, where the cost is a sum of per-cell closed forms in the
cumulative masses and moving a cell boundary at quantile level a gains
exactly the potential increment (y_left - Q(a))^2 - (y_right - Q(a))^2.
Summed by parts, these gains weight each cell's mass derivative by one
vector over the cells; the location and scatter derivatives of a cell's
mass are differences of the primitive's slope (and of the slope times the
offset) at its two edges, so a second summation by parts moves that
vector onto the edges.  Each gradient is then one matrix-vector product.
This is the exact chain rule of the discretized objective; sampling the
potential-times-derivative integrand pointwise instead fails entrywise
finite-difference checks near heavy tails and under-resolved components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import MixtureModel
from .transport import ProjectedMixture, ProjectionContext, project_model


@dataclass(frozen=True)
class EuclideanGrad:
    """Euclidean gradient triple for one projection direction.

    Scatter gradients are rank one: g_sigma[i] = w_sigma[i] * p p'.
    """

    p: np.ndarray
    g_sqrtpi: np.ndarray  # (k,)
    g_mu: np.ndarray  # (k, m)
    w_sigma: np.ndarray  # (k,)

    @classmethod
    def _trusted(cls, p, g_sqrtpi, g_mu, w_sigma) -> "EuclideanGrad":
        """The triple ``euclidean_grad`` has just formed, set without the
        frozen dataclass's per-field ``__init__``."""
        grad = object.__new__(cls)
        grad.__dict__.update(p=p, g_sqrtpi=g_sqrtpi, g_mu=g_mu, w_sigma=w_sigma)
        return grad

    @property
    def pp(self) -> np.ndarray:
        """p p', with the bits of ``np.outer(p, p)``."""
        return self.p[:, None] * self.p

    @property
    def g_sigma(self) -> np.ndarray:
        return self.w_sigma[:, None, None] * self.pp


def euclidean_grad(
    model: MixtureModel,
    ctx: ProjectionContext,
    projected: ProjectedMixture | None = None,
) -> EuclideanGrad:
    """Gradients of the projection cost w.r.t. sqrt-weights, mus, sigmas.
    A family with no gradient has no projected kernel: ``project_model``
    raises ``UnsupportedGradientError`` for it."""
    if projected is None:
        projected = project_model(model, ctx)
    grid = ctx.grid
    pi = model.weights

    # Interior quantile boundaries of the cells and their potential gains.
    bounds = projected.bounds[1:-1]
    q_at, _ = ctx.quantile_prefixes(bounds)
    gain = (grid[:-1] - q_at) ** 2 - (grid[1:] - q_at) ** 2

    # d cost / d theta = sum_j gain_j * d a_j, with a_j the normalized
    # cumulative mass at boundary j: d a_j = (sum_{l<=j} delta_l - a_j *
    # sum_l delta_l) / mass for raw cell-mass derivatives delta.  Summed by
    # parts, delta_l is weighted by vec_l: the suffix sum of the gains from
    # l on (zero for the last cell) less sum_j a_j gain_j, over the mass.
    vec = np.zeros(grid.size)
    vec[:-1] = gain[::-1].cumsum()[::-1]
    vec -= bounds @ gain
    vec /= projected.mass
    # A cell's location and scatter derivatives are differences of edge
    # values e_(l+1) - e_l, so sum_l (e_(l+1) - e_l) vec_l = e @ dvec.
    dvec = np.empty(grid.size + 1)
    dvec[0] = -vec[0]
    np.subtract(vec[:-1], vec[1:], out=dvec[1:-1])
    dvec[-1] = vec[-1]

    # delta = 2 sqrt(pi_i) cells_i for the sqrt-weights, -pi_i diff(slope_i)
    # / root_v_i for the location coefficient (the vector gradient is this
    # times p) and -pi_i diff(slope_offset_i) / (2 v_i) for the scatter one
    # (times p p').
    g_sqrtpi = 2.0 * np.sqrt(pi) * (projected.cells @ vec)
    with np.errstate(over="ignore", invalid="ignore"):
        g_loc = -pi * (projected.slope @ dvec) / projected.root_v
        w_sigma = -pi * (projected.slope_offset @ dvec) / (2.0 * projected.proj_var)
    # A non-finite edge node (a generator singularity, e.g. small-a Kotz at
    # t = 0) contributes nothing.  Each node a finite result summed was
    # finite, so the nodes are screened only when a result is not.
    if not (np.isfinite(g_loc).all() and np.isfinite(w_sigma).all()):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            edge_kernel = projected.slope / projected.root_v[:, None]
            edge_flux = projected.slope_offset / (2.0 * projected.proj_var[:, None])
        g_loc = -pi * (np.nan_to_num(edge_kernel, nan=0.0, posinf=0.0, neginf=0.0) @ dvec)
        w_sigma = -pi * (np.nan_to_num(edge_flux, nan=0.0, posinf=0.0, neginf=0.0) @ dvec)
    return EuclideanGrad._trusted(ctx.p, g_sqrtpi, g_loc[:, None] * ctx.p, w_sigma)
