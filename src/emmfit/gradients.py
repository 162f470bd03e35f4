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
Every family's slope is finite at finite offsets (a kernel table zeroes a
non-finite integrand when it is built), so no node is screened here: a
triple that is not finite is the fit step's to end the fit on.
"""

from __future__ import annotations

import numpy as np

from .mixture import MixtureModel
from .transport import ProjectedMixture, ProjectionContext


def euclidean_grad(model: MixtureModel, ctx: ProjectionContext, projected: ProjectedMixture) -> tuple:
    """The Euclidean triple of the projection cost given the model projected
    on ctx (``transport.project_model``, which raises
    ``UnsupportedGradientError`` for a family with no gradient): the
    sqrt-weight gradient (k,), the location gradient (k, m), g_loc[i] p, and
    the dense scatter gradient (k, m, m), w_sigma[i] p p'.  The triple is
    computed unwarned: one that is not finite is the fit step's to refuse."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        g_sqrtpi = 2.0 * np.sqrt(pi) * (projected.cells @ vec)
        g_loc = -pi * (projected.slope @ dvec) / projected.root_v
        w_sigma = -pi * (projected.slope_offset @ dvec) / (2.0 * projected.proj_var)
        p = ctx.p
        # p p' with the bits of np.outer(p, p), formed once
        return g_sqrtpi, g_loc[:, None] * p, w_sigma[:, None, None] * (p[:, None] * p)
