"""Distance machinery.

Three layers: the closed-form Wasserstein distance between two elliptical
laws, the matching-based approximate distance between mixtures, and the
sliced semi-discrete objective (projected model density vs. the empirical
measure on one direction), evaluated in closed form in the quantile domain.
The empirical quantile function is read straight from the sorted
projections and their prefix sums, at the few levels the cost and its
gradient ask for: from the n-long cumulative sum when the projections
are few per level, else from sums of the projections between the asked
ranks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateGridError, MismatchError, UndefinedSecondMomentError
from .families import EllipticalComponent
from .mixture import MixtureModel, as_dataset

K_EXACT = 8  # permutations are enumerated exactly up to this many components
NEAR_TIES_RESCORED = 64  # most matchings within rounding of the best rescored exactly
# A projection context with at most this many projections per asked
# quantile level reads its prefix sums from the n-long cumulative sum, built
# once per direction (about 4 ns per projection); a larger one sums the
# projections between the asked ranks on each call (about 40 us plus 1 ns
# per projection, ``ProjectionContext._prefix_at``).  The two cost the same
# per fit step near 30 projections per level, with 1025 levels.
PREFIX_TABLE_RATIO = 32


def _sqrtm_spd(sigma: np.ndarray) -> np.ndarray:
    lam, q = np.linalg.eigh(sigma)
    return (q * np.sqrt(np.clip(lam, 0.0, None))) @ q.T


def bures_gap(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2)), clipped at zero."""
    return _bures_gap(_sqrtm_spd(sigma1), sigma2, np.trace(sigma1) + np.trace(sigma2))


def _bures_gap(root1: np.ndarray, sigma2: np.ndarray, traces: float) -> float:
    """``bures_gap`` given root1 = ``_sqrtm_spd(sigma1)`` and
    traces = tr(S1) + tr(S2)."""
    inner = root1 @ sigma2 @ root1
    lam = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)
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


def _first_in_order(mu1, sigma1, mu2, sigma2) -> bool:
    """Whether (mu1, sigma1) comes first in the canonical operand order,
    which makes ``w2_elliptical`` bitwise symmetric despite the asymmetric
    Bures evaluation."""
    return not (mu2.tobytes() + sigma2.tobytes()) < (mu1.tobytes() + sigma1.tobytes())


def w2_elliptical(
    c1: EllipticalComponent, c2: EllipticalComponent, unit_weight: bool = False
) -> float:
    """Squared Wasserstein distance between two same-family elliptical laws.

    The scatter term carries the E[R^2]/m weight; for families without a
    second moment the caller must opt into ``unit_weight``.
    """
    if c1.family != c2.family:
        raise MismatchError("components must share one family (and dimension)")
    weight = _scatter_weight(c1.family, unit_weight)
    if not _first_in_order(c1.mu, c1.sigma, c2.mu, c2.sigma):
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
    """The (k, k) ``w2_elliptical`` values between the components of two
    same-family mixtures, bit for bit, each scatter's square root and trace
    taken once."""
    weight = _scatter_weight(model1.family, unit_weight)
    roots1 = [_sqrtm_spd(s) for s in model1.sigmas]
    roots2 = [_sqrtm_spd(s) for s in model2.sigmas]
    traces1 = [np.trace(s) for s in model1.sigmas]
    traces2 = [np.trace(s) for s in model2.sigmas]
    k = model1.k
    cost = np.empty((k, k))
    for i in range(k):
        mu1, s1 = model1.mus[i], model1.sigmas[i]
        for j in range(k):
            mu2, s2 = model2.mus[j], model2.sigmas[j]
            if _first_in_order(mu1, s1, mu2, s2):
                delta = mu1 - mu2
                gap = _bures_gap(roots1[i], s2, traces1[i] + traces2[j])
            else:
                delta = mu2 - mu1
                gap = _bures_gap(roots2[j], s1, traces2[j] + traces1[i])
            cost[i, j] = float(delta @ delta) + weight * gap
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


def _solve_matching(cost: np.ndarray, sq1: np.ndarray, sq2: np.ndarray) -> tuple[float, np.ndarray, float]:
    k = cost.shape[0]
    if k <= K_EXACT:
        # Score every permutation with numpy, then rescore those within
        # rounding of the best with ``_matching_objective`` and keep the first
        # strict minimum in lexicographic order, as a loop over
        # ``itertools.permutations`` would.  Past NEAR_TIES_RESCORED ties the
        # lowest scores are rescored.
        scores = _matching_scores(cost, sq1, sq2)
        near = np.flatnonzero(scores <= scores.min() * (1.0 + 1e-12))
        if near.size > NEAR_TIES_RESCORED:
            near = np.sort(near[np.argsort(scores[near], kind="stable")[:NEAR_TIES_RESCORED]])
        best = (np.inf, None, 0.0)
        for j in near:
            perm = _orders(k)[:, j].astype(np.intp)
            value, angle = _matching_objective(cost, sq1, sq2, perm)
            if value < best[0]:
                best = (value, perm, angle)
        return best
    # Stage 1: assignment on the transport matrix alone; stage 2: pairwise
    # swaps on the full objective (the arccos term couples the matching).
    # imported here: it would add about 0.2 s and 22 MB of RSS to every
    # import of emmfit
    from scipy.optimize import linear_sum_assignment

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
    arccos(sum of matched sqrt(pi_i pi_j)).  Exact for k <= 8 (every
    matching scored with numpy, the best rescored as a loop over the
    permutations would), two-stage heuristic beyond.  Symmetric bitwise:
    the operand pair is ordered canonically before solving.
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
    from x by index arithmetic.  The prefix integral needs the prefix sums
    of x at the asked ranks: up to PREFIX_TABLE_RATIO projections per asked
    level they come from the n-long cumulative sum of x, built on first use
    and kept with the context; past that each call sums x between its
    sorted ranks, and the context keeps no n-long table.  The grid is
    uniform; its trapezoid weights are the widths of ``cell_edges``, which
    ``project_components`` integrates over, so the context keeps none.

    A context built from outside checks that p is a unit vector and that
    the projections are sorted.  ``make_projection_context`` checks p and
    sorts the projections itself, so the context it returns is trusted
    and skips the O(n) sortedness re-scan (``_trusted``).  A fit step reads
    Q twice from its context, at the cell bounds of its projected model
    (``projected_w2``) and at their interior (``euclidean_grad``), and
    ``quantile_prefixes`` never writes into the levels it is given.
    """

    p: np.ndarray
    projected_samples: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        _check_unit(self.p)
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


def make_projection_context(
    p: np.ndarray,
    samples: np.ndarray,
    n_grid: int = 1024,
    margin_sigmas: float = 4.0,
    *,
    cov: np.ndarray,
) -> ProjectionContext:
    """Project the data along the unit vector p and lay a uniform trapezoid
    grid of n_grid >= 2 nodes over it, reaching margin_sigmas >= 0 spreads
    past the extreme projections; a grid it cannot lay is refused with
    ``MismatchError``.

    The spread is the projections' standard deviation, read as
    sqrt(p' cov p) from the samples' biased covariance ``cov``
    (``mixture.sample_covariance``).  A caller projecting the same samples
    many times passes ``Dataset.covariance``, which each ``mixture.Dataset``
    computes once.  Constant projections fall back to a spread of
    max(1, |x|).  The context is built trusted: p is checked here and the
    projections are sorted here, so nothing is re-scanned.
    """
    if n_grid < 2:
        raise MismatchError(f"a projection grid needs at least 2 nodes, got {n_grid}")
    if not (margin_sigmas >= 0.0 and math.isfinite(margin_sigmas)):
        raise MismatchError(f"the grid margin must be finite and nonnegative, got {margin_sigmas}")
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
    return ProjectionContext._trusted(p, projected, np.linspace(lo, hi, n_grid))


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
    # Generator singularities (e.g. small-a Kotz at t=0) give non-finite
    # edge nodes, which the gradient drops.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
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
    # the row norms np.linalg.norm(p, axis=1) takes, without its dispatch
    return p / np.sqrt(np.add.reduce(p * p, axis=1, keepdims=True))

