"""Distance machinery.

Three layers: the closed-form Wasserstein distance between two elliptical
laws, the matching-based approximate distance d_u between mixtures (its
value and its component matching), and the sliced semi-discrete objective
(projected model density vs. the empirical measure on one direction),
evaluated in closed form in the quantile domain.  A projection context
projects the rows of a ``mixture.Dataset`` and reads its grid's spread
from the covariance the Dataset keeps.  The empirical quantile function
is read straight from the sorted projections and their prefix sums, at
the few levels the cost and its gradient ask for: from the n-long
cumulative sum when the projections are few per level, else from sums of
the projections between the asked ranks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateGridError, MismatchError, UndefinedSecondMomentError, _integer
from .families import EllipticalComponent
from .manifold import _is_unit, _sym, sphere_from_weights
from .mixture import MixtureModel, as_dataset

K_EXACT = 8  # permutations are enumerated exactly up to this many components
# A projection context with at most this many projections per asked
# quantile level reads its prefix sums from the n-long cumulative sum, built
# once per direction (about 4 ns per projection); a larger one sums the
# projections between the asked ranks on each call (about 40 us plus 1 ns
# per projection, ``ProjectionContext._prefix_at``).  The two cost the same
# per fit step near 30 projections per level, with 1025 levels.
PREFIX_TABLE_RATIO = 32
# ``make_projection_context`` lays GRID_NODES uniform nodes from GRID_MARGIN
# spreads below the smallest projection to as many above the largest.
GRID_NODES = 1024
GRID_MARGIN = 4.0


def _sqrtm_spd(sigma: np.ndarray) -> np.ndarray:
    lam, q = np.linalg.eigh(sigma)
    return (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T


def bures_gap(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2)), clipped at zero."""
    return _bures_gap(_sqrtm_spd(sigma1), sigma2, np.trace(sigma1) + np.trace(sigma2))


def _bures_gap(root1: np.ndarray, sigma2: np.ndarray, traces: float) -> float:
    """``bures_gap`` given root1 = ``_sqrtm_spd(sigma1)`` and
    traces = tr(S1) + tr(S2)."""
    lam = np.clip(np.linalg.eigvalsh(_sym(root1 @ sigma2 @ root1)), 0.0, None)
    gap = float(traces - 2.0 * np.sum(np.sqrt(lam)))
    return max(gap, 0.0)


def _scatter_weight(family, unit_weight: bool) -> float:
    """The E[R^2]/m weight of the scatter term of ``w2_elliptical``."""
    if unit_weight:
        return 1.0
    mean_r2 = family.mean_r2()
    if mean_r2 is None:
        raise UndefinedSecondMomentError(f"{family.name} has no finite E[R^2]; pass unit_weight=True")
    return mean_r2 / family.m


def _key(*arrays) -> bytes:
    """The bytes of the arrays in turn.  ``w2_elliptical`` and ``d_u`` put
    their operands in the order of these keys, which makes each bitwise
    symmetric despite the asymmetric Bures evaluation."""
    return b"".join(a.tobytes() for a in arrays)


def w2_elliptical(
    c1: EllipticalComponent, c2: EllipticalComponent, unit_weight: bool = False
) -> float:
    """Squared Wasserstein distance between two same-family elliptical laws.

    The scatter term carries the E[R^2]/m weight; for families without a
    second moment the caller must opt into ``unit_weight``.
    """
    if c1.family != c2.family:
        raise MismatchError("components must share one family (and dimension)")
    first, second = (c1.mu[None], c1.sigma[None]), (c2.mu[None], c2.sigma[None])
    if _key(c2.mu, c2.sigma) < _key(c1.mu, c1.sigma):
        first, second = second, first
    return float(_pairwise_w2(c1.family, first, second, unit_weight)[0, 0])


def _pairwise_w2(family, first, second, unit_weight: bool) -> np.ndarray:
    """The (k1, k2) squared W2 values between the components (mus1[i],
    sigmas1[i]) of first = (mus1, sigmas1) and those of second, all of one
    family, each pair taken in the order given: the square roots of first's
    scatters only, and every trace once."""
    (mus1, sigmas1), (mus2, sigmas2) = first, second
    weight = _scatter_weight(family, unit_weight)
    traces2 = [np.trace(s) for s in sigmas2]
    cost = np.empty((len(mus1), len(mus2)))
    for i, (mu1, s1) in enumerate(zip(mus1, sigmas1)):
        root1, trace1 = _sqrtm_spd(s1), np.trace(s1)
        for j, (mu2, s2) in enumerate(zip(mus2, sigmas2)):
            delta = mu1 - mu2
            cost[i, j] = float(delta @ delta) + weight * _bures_gap(root1, s2, trace1 + traces2[j])
    return cost


def _matching_objective(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray, perm) -> float:
    k = cost.shape[0]
    idx = np.arange(k)
    transport = float(cost[idx, perm].sum()) / k
    # arccos(sum_i sqrt(pi_1i pi_2sigma(i))) evaluated as the great-circle
    # angle 2 arcsin(|s1 - s2 o sigma| / 2); near-1 overlaps would lose all
    # precision inside arccos and the identity axiom asks for exact zero.
    gap = float(np.linalg.norm(sq1 - sq2[perm]))
    return transport + 2.0 * float(np.arcsin(0.5 * gap))


@lru_cache(maxsize=None)
def _orders(k: int) -> np.ndarray:
    """The k! permutations of range(k) in lexicographic order, one per
    column of a (k, k!) int8 index table (322 kB at k = 8)."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    return np.fromiter(flat, dtype=np.int8, count=k * math.factorial(k)).reshape(-1, k).T.copy()


def _matching_scores(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray) -> np.ndarray:
    """``_matching_objective``, up to rounding, of every permutation of
    range(k): one score per column of ``_orders(k)``, one row at a time."""
    k = cost.shape[0]
    transport = np.zeros(math.factorial(k))
    gap2 = np.zeros(transport.size)
    for i, row in enumerate(_orders(k)):
        transport += cost[i].take(row)
        gap2 += np.square(sq1[i] - sq2.take(row))
    return transport / k + 2.0 * np.arcsin(0.5 * np.sqrt(gap2))


def _solve_matching(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray) -> tuple[float, np.ndarray]:
    k = cost.shape[0]
    if k <= K_EXACT:
        # Score every permutation with numpy and value the first with the
        # lowest score, in lexicographic order, with ``_matching_objective``.
        perm = _orders(k)[:, int(np.argmin(_matching_scores(cost, sq1, sq2)))].astype(np.intp)
        return _matching_objective(cost, sq1, sq2, perm), perm
    # Stage 1: assignment on the transport matrix alone; stage 2: pairwise
    # swaps on the full objective (the arccos term couples the matching).
    # imported here: it would add about 0.2 s and 22 MB of RSS to every
    # import of emmfit
    from scipy.optimize import linear_sum_assignment

    _, perm = linear_sum_assignment(cost)
    perm = np.asarray(perm)
    value = _matching_objective(cost, sq1, sq2, perm)
    improved = True
    while improved:
        improved = False
        for i in range(k):
            for j in range(i + 1, k):
                cand = perm.copy()
                cand[i], cand[j] = cand[j], cand[i]
                cand_value = _matching_objective(cost, sq1, sq2, cand)
                if cand_value < value - 1e-15:
                    value, perm = cand_value, cand
                    improved = True
    return value, perm


def d_u(model1: MixtureModel, model2: MixtureModel, unit_weight: bool = False) -> tuple[float, np.ndarray]:
    """Approximate mixture distance: best bijective matching of components.

    Minimizes (1/k) sum of matched component W2 values plus
    arccos(sum of matched sqrt(pi_i pi_j)), and returns (value,
    permutation): component i of model1 is matched to component
    permutation[i] of model2.  Exact for k <= 8 (every matching scored with
    numpy, the best-scored one valued exactly), two-stage heuristic beyond.
    Symmetric bitwise: the two models are ordered canonically, and each
    component pair is taken in that order.
    """
    # the family carries m
    if model1.k != model2.k or model1.family != model2.family:
        raise MismatchError("mixtures must agree in k, m and family")
    swapped = _key(model2.weights, model2.mus, model2.sigmas) < _key(model1.weights, model1.mus, model1.sigmas)
    lo, hi = (model2, model1) if swapped else (model1, model2)
    cost = _pairwise_w2(lo.family, (lo.mus, lo.sigmas), (hi.mus, hi.sigmas), unit_weight)
    sq1, sq2 = sphere_from_weights(lo.weights), sphere_from_weights(hi.weights)
    value, perm = _solve_matching(cost, sq1, sq2)
    if swapped:
        perm = np.argsort(perm)
    return value, perm


def _check_unit(p: np.ndarray) -> None:
    if not _is_unit(p):
        raise MismatchError("projection direction must be unit norm")


@dataclass(frozen=True)
class ProjectionContext:
    """One random direction: sorted projected data and the quadrature grid.

    The empirical quantile function Q of the n sorted projections x is
    piecewise linear with knot j at level (j + 1/2)/n and value x[j], and
    flat outside [1/(2n), 1 - 1/(2n)].  Q and its prefix integral are read
    from x by index arithmetic.  The prefix integral needs the prefix sums
    of x at the asked ranks: up to PREFIX_TABLE_RATIO projections per asked
    level they come from the n-long cumulative sum of x, built on first use
    and kept with the context; past that each call sums x between its
    sorted ranks, and the context keeps no n-long table.  The grid is
    uniform; its trapezoid weights are the widths of ``cell_edges``, which
    ``project_components`` integrates over, so the context keeps none.

    ``make_projection_context`` lays the one grid a fit uses over the rows
    of a Dataset, of GRID_NODES nodes reaching GRID_MARGIN spreads past the
    extreme projections; it checks p and sorts the projections itself, so
    the context it returns is trusted and skips the O(n) sortedness
    re-scan (``_trusted``).  Any other grid goes through this constructor,
    which checks that p is a unit vector and that the projections are
    sorted.  A fit step reads Q twice from its context, at the cell bounds
    of its projected model (``projected_w2``) and at their interior
    (``euclidean_grad``), and ``quantile_prefixes`` never writes into the
    levels it is given.
    """

    p: np.ndarray
    projected_samples: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        _check_unit(np.asarray(self.p, dtype=float))
        if np.any(np.diff(self.projected_samples) < 0.0):
            raise MismatchError("projected samples must be sorted")

    @classmethod
    def _trusted(cls, p, projected_samples, grid) -> "ProjectionContext":
        """A context over a unit p and projections already sorted, unchecked."""
        ctx = object.__new__(cls)
        ctx.__dict__.update(p=p, projected_samples=projected_samples, grid=grid)
        return ctx

    @cached_property
    def _prefix_sums(self) -> np.ndarray:
        # C[j] = x[0] + ... + x[j-1], with C[0] = 0
        x = self.projected_samples
        c = np.empty(x.size + 1)
        c[0] = 0.0
        x.cumsum(out=c[1:])
        return c

    def _prefix_at(self, i: np.ndarray, x_i: np.ndarray) -> np.ndarray:
        """C[i + 1] = x[0] + ... + x[i] at the ranks i, given x_i = x[i].

        Up to PREFIX_TABLE_RATIO projections per rank, C is read from the
        n-long table.  Past that, one ``reduceat`` sums x between
        consecutive sorted ranks, and a cumsum over those ~len(i) sums gives
        x[0] + ... + x[i - 1], to which x_i is added.
        """
        x = self.projected_samples
        # a scalar or empty q takes the table
        if i.ndim != 1 or not i.size or x.size <= PREFIX_TABLE_RATIO * i.size:
            return self._prefix_sums[1:][i]
        order = None
        if np.any(i[1:] < i[:-1]):
            order = np.argsort(i, kind="stable")
            i = i[order]
        bounds = np.empty(i.size + 1, dtype=np.intp)
        bounds[0] = 0
        bounds[1:] = i
        # segment j sums x[bounds[j]:bounds[j + 1]]; the last one, the tail
        # past the largest rank, is not needed
        seg = np.add.reduceat(x, bounds)[:-1]
        # where two bounds are equal reduceat gives x[bound], not 0
        seg[bounds[:-1] == bounds[1:]] = 0.0
        below = np.cumsum(seg)
        if order is None:
            return below + x_i
        c = np.empty_like(below)
        c[order] = below
        return c + x_i

    def quantile_prefixes(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Q(q), S1(q)) with S1 = int_0^q Q; q is clipped to [0, 1].

        Each step works in place in temporaries of its own, in the order of
        the closed form below, so q itself is never written."""
        x = self.projected_samples
        n = x.size
        # t is q's position in knot units; knot i sits at t = i.  The
        # maximum and minimum clip as np.clip does, but for the sign of a
        # zero q, which t = q n - 0.5 does not keep.
        t = np.minimum(np.maximum(q, 0.0), 1.0)
        t *= n
        t -= 0.5
        tau = np.minimum(np.maximum(t, 0.0), n - 1)
        i = tau.astype(np.intp)
        f = tau - i
        x0 = x[i]
        # at the last knot f = 0, so its clipped neighbour adds nothing
        qv = x[np.minimum(i + 1, n - 1)]
        qv -= x0
        qv *= f
        qv += x0
        # knots 0..i as trapezoids, the part of segment i up to tau, and the
        # flat run below the first knot or past the last one (t - tau):
        # (C[i + 1] - x0 / 2 + f / 2 (x0 + qv) + (t - tau) qv) / n
        s1 = self._prefix_at(i, x0)
        s1 -= 0.5 * x0
        f *= 0.5
        x0 += qv
        f *= x0
        s1 += f
        t -= tau
        t *= qv
        s1 += t
        s1 /= n
        return qv, s1

    @property
    def quantile_second_moment(self) -> float:
        """int_0^1 Q(q)^2 dq, summed over Q's linear pieces in closed form."""
        x = self.projected_samples
        ends = x[0] * x[0] + x[-1] * x[-1]
        return float((2.0 / 3.0) * (x @ x) + ends / 6.0 + (x[:-1] @ x[1:]) / 3.0) / x.size


def make_projection_context(p: np.ndarray, data) -> ProjectionContext:
    """Project the rows of a Dataset, or of a raw (n, m) array given the
    Dataset checks, along the unit m-vector p and lay a uniform trapezoid
    grid of GRID_NODES nodes over them, reaching GRID_MARGIN spreads past
    the extreme projections.

    The spread is the projections' standard deviation, read as
    sqrt(p' C p) from the data's covariance C (``Dataset.covariance``),
    which a Dataset takes once however often it is projected.  Constant
    projections fall back to a spread of max(1, |x|).  The context is
    built trusted: p is checked here and the projections are sorted here,
    so nothing is re-scanned.  A p that is not an m-vector of unit norm,
    and a direction whose p' C p is not finite, raise ``MismatchError``.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise MismatchError(f"a projection direction is an m-vector p, not an array of shape {p.shape}")
    dataset = as_dataset(data, p.size)
    _check_unit(p)
    # refused below, unwarned, where it is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(p @ dataset.covariance @ p)
    if not math.isfinite(var):
        raise MismatchError(f"the data covariance C gives the direction a projected variance p' C p of {var}")
    projected = dataset.samples @ p
    projected.sort()
    # constant projections have var 0, or a rounding-negative one
    spread = math.sqrt(var) if var > 0.0 else max(1.0, abs(float(projected[0])))
    lo = projected[0] - GRID_MARGIN * spread
    hi = projected[-1] + GRID_MARGIN * spread
    return ProjectionContext._trusted(p, projected, np.linspace(lo, hi, GRID_NODES))


@dataclass(frozen=True)
class ProjectedMixture:
    """Per-component pieces of the projected model density on the grid.

    Cell masses are exact: the weight-free kernel (p' Sigma_i p)^(-1/2)
    c_m g(t_i) is integrated over each trapezoid cell as a difference of
    the family's primitive Phi at the standardized cell edges u
    (``gen_primitive``: in closed form for the Gaussian, from a PCHIP table
    otherwise), so thin projected components (eccentric scatters) keep
    their mass even when narrower than the grid spacing.  The primitive's
    slope at the edges, and the slope times u, give the exact cell
    integrals of the location and scatter derivatives
    (``gradients.euclidean_grad``).  The mixture's normalized cell masses
    and their cumulative sums are taken once, here, for both the cost and
    the gradient.
    """

    cells: np.ndarray  # (k, G)  weight-free cell masses max(diff(Phi(u)), 0)
    slope: np.ndarray  # (k, G+1)  Phi'(u) = c_m g(u^2) at the cell edges
    slope_offset: np.ndarray  # (k, G+1)  Phi'(u) u at the cell edges
    root_v: np.ndarray  # (k,)  sqrt(p' Sigma_i p)
    proj_var: np.ndarray  # (k,)  p' Sigma_i p
    masses: np.ndarray  # (G,)  the mixture's cell masses over their total
    bounds: np.ndarray  # (G+1,)  their cumulative sums: 0, ..., exactly 1
    mass: float  # the mixture's total mass on the grid


def cell_edges(grid: np.ndarray) -> np.ndarray:
    """Midpoint cell edges whose widths equal the trapezoid weights."""
    return np.concatenate([[grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]])


def project_components(family, weights, mus, sigmas, ctx: ProjectionContext) -> ProjectedMixture:
    """Projected mixture pieces from float parameter arrays: (k,) weights,
    (k, m) locations and (k, m, m) scatters, taken as they are.

    Weights need not sum to one here; renormalization by the grid mass is
    part of the objective, and finite-difference probes step off the
    simplex.
    """
    p = ctx.p
    proj_var = np.einsum("i,kij,j->k", p, sigmas, p)
    if (proj_var <= 0.0).any():
        raise DegenerateGridError("projected variance must be positive")
    root_v = np.sqrt(proj_var)
    edge_u = cell_edges(ctx.grid) - (mus @ p)[:, None]
    edge_u /= root_v[:, None]
    # cell masses are mathematically nonnegative; a rounded primitive, closed
    # form or interpolated, can step down by an ulp in saturated tails
    prim = family.gen_primitive(edge_u)
    cells = prim[:, 1:] - prim[:, :-1]
    np.maximum(cells, 0.0, out=cells)
    slope = family.gen_primitive_slope(edge_u)
    slope_offset = slope * edge_u
    masses = weights @ cells
    mass = float(masses.sum())
    if not (math.isfinite(mass) and mass > 1e-300):
        raise DegenerateGridError("projected model density has no mass on the grid")
    masses /= mass
    bounds = np.empty(masses.size + 1)
    bounds[0] = 0.0
    masses.cumsum(out=bounds[1:])
    # exact ends: the slabs' Q^2 integrals add up to int_0^1 Q^2
    bounds[-1] = 1.0
    return ProjectedMixture(cells, slope, slope_offset, root_v, proj_var, masses, bounds, mass)


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
    _, s1 = ctx.quantile_prefixes(projected.bounds)
    y = ctx.grid
    return float(y @ (y * projected.masses - 2.0 * (s1[1:] - s1[:-1]))) + ctx.quantile_second_moment


def sliced_cost(model: MixtureModel, data, projections) -> float:
    """Average semi-discrete 1-D cost over the given unit projections, on the
    rows of a Dataset or of a raw (n, m) array given the Dataset checks;
    data whose covariance overflows are refused (``Dataset.covariance``)."""
    dataset = as_dataset(data, model.m)
    total = 0.0
    count = 0
    for p in projections:
        ctx = make_projection_context(p, dataset)
        total += projected_w2(ctx, project_model(model, ctx))
        count += 1
    if count == 0:
        raise MismatchError("need at least one projection")
    return total / count


def random_projections(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count unit vectors in R^m (deterministic given the generator state);
    an m below 1 or a count below 0 raises ``MismatchError``."""
    return _draw_projections(_integer(m, "m", MismatchError, 1), _integer(count, "count", MismatchError), rng)


def _draw_projections(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``random_projections`` on sizes it has checked, as each fit step draws."""
    p = rng.standard_normal((count, m))
    # the row norms np.linalg.norm(p, axis=1) takes, without its dispatch
    return p / np.sqrt(np.add.reduce(p * p, axis=1, keepdims=True))

