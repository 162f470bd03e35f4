"""Euclidean gradients of the per-projection semi-discrete cost.

The cost's first variation in the projected density is the Kantorovich
potential: each parameter's gradient is the potential integrated against
the density derivative (weights through the projected kernel, locations
through the generator derivative times the offset, scatters as a scalar
weight on the rank-1 direction p p').  The integrals are evaluated in the
quantile domain, where the cost is a sum of per-cell closed forms in the
cumulative masses and moving a cell boundary at quantile level a gains
exactly the potential increment (y_left - Q(a))^2 - (y_right - Q(a))^2.
This is the exact chain rule of the discretized objective; sampling the
potential-times-derivative integrand pointwise instead fails entrywise
finite-difference checks near heavy tails and under-resolved components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGradientError
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

    @property
    def g_sigma(self) -> np.ndarray:
        return self.w_sigma[:, None, None] * np.outer(self.p, self.p)[None, :, :]


def euclidean_grad(
    model: MixtureModel,
    ctx: ProjectionContext,
    projected: ProjectedMixture | None = None,
) -> EuclideanGrad:
    """Gradients of the projection cost w.r.t. sqrt-weights, mus, sigmas."""
    if not model.family.has_gradient:
        raise UnsupportedGradientError(f"{model.family.name} {model.family.params()} has no sliced-cost gradient")
    if projected is None:
        projected = project_model(model, ctx)
    k = model.k
    w = ctx.grid_weights
    grid = ctx.grid
    mass = projected.mass
    sqrtpi = np.sqrt(model.weights)

    # Raw cell-mass derivatives along the 3k parameter directions, stacked
    # as rows: sqrt-weights, then location coefficients (the vector
    # gradient is this scalar times p), then scatter coefficients (times
    # p p').  Cell integrals of the location and scatter integrands
    # telescope to edge differences of the kernel and of its scale flux.
    cell_delta = np.vstack(
        [
            2.0 * sqrtpi[:, None] * (projected.kernels * w[None, :]),
            -model.weights[:, None] * np.diff(projected.edge_kernel, axis=1),
            -model.weights[:, None] * np.diff(projected.edge_scale_flux, axis=1),
        ]
    )

    # Interior quantile boundaries of the cells and their potential gains.
    masses = (projected.rho * w) / mass
    bounds = np.cumsum(masses)[:-1]
    q_at, _ = ctx.quantile_prefixes(bounds)
    gain = (grid[:-1] - q_at) ** 2 - (grid[1:] - q_at) ** 2

    # d cost / d theta = sum_j gain_j * d a_j, with a_j the normalized
    # cumulative mass at boundary j: d a_j = (sum_{l<=j} delta_l - a_j *
    # sum_l delta_l) / mass.  Summed by parts, delta_l is weighted by the
    # suffix sum of the gains from l on (zero for the last cell) less
    # sum_j a_j gain_j: one suffix sum of the gains, not one per row.
    suffix = np.zeros(grid.size)
    suffix[:-1] = np.cumsum(gain[::-1])[::-1]
    grads = cell_delta @ (suffix - bounds @ gain) / mass

    g_sqrtpi = grads[:k]
    g_mu = grads[k : 2 * k, None] * ctx.p[None, :]
    w_sigma = grads[2 * k :]
    return EuclideanGrad(ctx.p, g_sqrtpi, g_mu, w_sigma)
