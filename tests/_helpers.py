"""Shared test oracles, independent of the library code paths they check."""

import itertools

import numpy as np
from scipy import stats
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from emmfit import families as fam
from emmfit import mixture as mx
from emmfit import optim
from emmfit import transport as tp
from emmfit.errors import MismatchError


def newton_sqrtm(a: np.ndarray, iters: int = 60) -> np.ndarray:
    """Matrix square root by the Denman-Beavers iteration."""
    y = np.asarray(a, dtype=float)
    z = np.eye(a.shape[0])
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z = 0.5 * (z + np.linalg.inv(y))
        y = y_next
    return y


def bures_gap_newton(s1: np.ndarray, s2: np.ndarray) -> float:
    """Second, independent route to tr(S1 + S2 - 2 (S1^1/2 S2 S1^1/2)^1/2)."""
    r1 = newton_sqrtm(s1)
    cross = newton_sqrtm(r1 @ s2 @ r1)
    return float(np.trace(s1) + np.trace(s2) - 2.0 * np.trace(cross))


# every family with a density, as a function of m
DENSITY_FAMILIES = {
    "gaussian": fam.gaussian,
    "cauchy": fam.cauchy,
    "laplace": fam.laplace,
    "kotz": lambda m: fam.Kotz(m=m, a=2.0, b=1.0, s=1.5),
    "pearson7": lambda m: fam.PearsonVII(m=m, v=5.0, s=(m + 5.0) / 2.0),
    "pearson2": lambda m: fam.PearsonII(m=m, s=3.0),
    "logistic": lambda m: fam.Logistic(m=m),
    "hyperbolic": lambda m: fam.Hyperbolic(m=m, v=2.0, a=1.0, lam=-0.5),
}


def component_logpdf_oracle(model, x):
    """(k, n) weighted component log densities log(pi_i f_i(x)) at the rows
    of x, one component at a time: a Cholesky factor and a forward
    substitution per component, on the samples in (n, m) layout."""
    from scipy.linalg import solve_triangular

    x = np.atleast_2d(np.asarray(x, dtype=float))
    parts = np.empty((model.k, x.shape[0]))
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    for i in range(model.k):
        chol = np.linalg.cholesky(model.sigmas[i])
        z = solve_triangular(chol, (x - model.mus[i]).T, lower=True)
        t = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        parts[i] = logw[i] + model.family.log_gen(t) - 0.5 * logdet
    return parts


def component_logpdf_strided(model, x):
    """``MixtureModel.component_logpdf`` as it read the rows before each
    block was copied once: every component centred straight from the
    strided (m, b) view of ``column_blocks``, then whitened and handed to
    the shared density kernel."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty((model.k, x.shape[0]))
    _, inv_chol, offset = model._kernel()
    lo = 0
    for xb in mx.column_blocks(x):
        b = xb.shape[1]
        white = np.ones((model.k, model.m + 1, b))
        for i in range(model.k):
            np.matmul(inv_chol[i], xb - model.mus[i][:, None], out=white[i, : model.m])
        out[:, lo : lo + b] = model._block_logdens(white, offset, np.empty((model.k, b)))
        lo += b
    return out


def em_oracle(model0, data, cfg):
    """EM as ``optim.fit_em_gmm`` ran before it went block by block: the
    samples as one contiguous (m, n) array, the (k, n) responsibilities in
    full, and per component an M-step of centred, weighted (m, n) passes
    with one (m x n) @ (n x m) scatter product.  Returns (costs, events,
    final model); the eigenvalue floor and reseeding are the fit's."""
    samples = mx.as_dataset(data, model0.m).samples
    n, m = samples.shape
    k = model0.k
    rng = np.random.default_rng(cfg.seed)
    data_cov_trace = float(np.trace(mx.sample_covariance(samples)))
    floor = 1e-6 * data_cov_trace / m
    iso = np.eye(m) * data_cov_trace / m
    weights, mus, sigmas = model0.weights.copy(), model0.mus.copy(), model0.sigmas.copy()
    xt = np.ascontiguousarray(samples.T)
    diff, wdiff = np.empty((m, n)), np.empty((m, n))
    covs = np.empty((k, m, m))
    costs, events = [], []
    prev_nll = np.inf
    for h in range(1, cfg.max_iters + 1):
        model = mx.MixtureModel(model0.family, weights, mus, sigmas)
        chol = np.linalg.cholesky(model.sigmas)
        inv_chol = np.linalg.solve(chol, np.broadcast_to(np.eye(m), chol.shape))
        t = np.empty((k, n))
        for i in range(k):
            np.subtract(xt, mus[i][:, None], out=diff)
            np.matmul(inv_chol[i], diff, out=wdiff)
            np.einsum("ij,ij->j", wdiff, wdiff, out=t[i])
        resp = model.family.log_gen(t)
        with np.errstate(divide="ignore"):
            resp += (np.log(weights) - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))[:, None]
        nll = float(-np.mean(mx.normalize_columns(resp)))
        costs.append(nll)
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
        weights = weights / weights.sum()
        lam, q = np.linalg.eigh(0.5 * (covs + np.swapaxes(covs, 1, 2)))
        sigmas = (q * np.maximum(lam, floor)[:, None, :]) @ np.swapaxes(q, 1, 2)
        sigmas[collapsed] = iso
        if abs(prev_nll - nll) < cfg.em_tol:
            break
        prev_nll = nll
    return np.array(costs), events, mx.MixtureModel(model0.family, weights, mus, sigmas)


def initialize_oracle(data, k, family, rng):
    """``optim.initialize(data, k, family, "kmeanspp-lite", rng)`` as it
    seeded before d2 became a running minimum: every round recomputes the
    squared distances to every location chosen so far, k(k-1)/2 passes in
    all, and the covariance is taken from the samples on each call.  The
    distances are summed over a C-ordered copy of the samples, whose rows
    numpy sums in its pairwise order whatever their layout was."""
    samples = np.ascontiguousarray(mx.as_dataset(data, family.m).samples)
    n, m = samples.shape
    pi = rng.dirichlet(np.ones(k))
    iso = np.eye(m) * float(np.trace(mx.sample_covariance(samples))) / m
    chosen = [samples[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min([np.sum((samples - c) ** 2, axis=1) for c in chosen], axis=0)
        probs = d2 / d2.sum()
        chosen.append(samples[rng.choice(n, p=probs)])
    return mx.MixtureModel(family, pi, np.array(chosen), np.stack([iso.copy() for _ in range(k)]))


def sample_oracle(component, rng, n):
    """``families.sample(component, rng, n)`` for n >= 1 as it drew before
    its row norms came from ``families.row_sums``: ``np.linalg.norm`` along
    each row."""
    r = np.sqrt(component.family.sample_r2(rng, n))
    z = rng.standard_normal((n, component.family.m))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return component.mu + r[:, None] * (z @ component.chol.T)


def draw_rows_oracle(model, rng, n):
    """``mixture._draw_rows(model, rng, n)`` as it scattered before its rows
    moved as whole items: each component's draws (``sample_oracle``)
    assigned to their labels' rows through 2-D fancy indexing."""
    labels = rng.choice(model.k, size=n, p=model.weights)
    out = np.empty((n, model.m))
    for i in range(model.k):
        idx = np.flatnonzero(labels == i)
        if idx.size:
            out[idx] = sample_oracle(model.component(i), rng, idx.size)
    return out


def covariance_oracle(samples):
    """``mixture.sample_covariance(samples)`` as it was taken before its
    narrow-row fold: ``np.cov(samples.T, bias=True)``, on samples scaled by
    2^-e when their largest |entry| has binary exponent e with |e| > 255,
    and scaled back by 2^2e."""
    m = samples.shape[1]
    e = int(np.frexp(max(-samples.min(), samples.max()))[1])
    if abs(e) <= 255:
        return np.cov(samples.T, bias=True).reshape(m, m)
    with np.errstate(over="ignore"):
        return np.ldexp(np.cov(np.ldexp(samples, -e).T, bias=True).reshape(m, m), 2 * e)


def golden_case():
    """The seeded m=2, k=3 data set and start of the golden fits."""
    data = mx.generate_synthetic(2, 3, 2000, 4.0, 3.0, np.random.default_rng(7))
    model0 = optim.initialize(data, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(11))
    return data, model0


def golden_config(method: str) -> optim.OptimizerConfig:
    return optim.OptimizerConfig(method=method, alpha=0.03, max_iters=40, em_tol=0.0, seed=5)


def golden_fit(method: str, data, model0):
    return optim.fit(model0, data, golden_config(method))


def pchip_primitive_oracle(family):
    """(primitive, slope) of the projected kernel, evaluated the way scipy
    does: a PchipInterpolator on the family's table nodes and its derivative
    PPoly, each binary-searching the nodes for every point."""
    from scipy.interpolate import PchipInterpolator

    table = family._projected_kernel
    # the table's constant coefficients are the node values Phi(u_j)
    interp = PchipInterpolator(table.nodes, np.append(table.coef[:, 3], table.phi_max), extrapolate=False)
    deriv = interp.derivative()
    u_max, phi_max = table.u_max, table.phi_max

    def primitive(u):
        u = np.asarray(u, dtype=float)
        mag = np.minimum(np.abs(u), u_max)
        return np.sign(u) * np.where(mag >= u_max, phi_max, interp(mag))

    def slope(u):
        mag = np.abs(np.asarray(u, dtype=float))
        return np.where(mag >= u_max, 0.0, deriv(np.minimum(mag, u_max)))

    return primitive, slope


def quantile_prefix_oracle(x, q):
    """(Q(q), S1(q), S2(q)) of the empirical quantile function of sorted x,
    with S1 = int_0^q Q and S2 = int_0^q Q^2: the breakpoints {0, (j+1/2)/n, 1}
    and prefix integrals over them tabulated in full, then read by binary
    search."""
    x = np.asarray(x, dtype=float)
    n = x.size
    levels = np.concatenate([[0.0], (np.arange(n) + 0.5) / n, [1.0]])
    values = np.concatenate([[x[0]], x, [x[-1]]])
    dq = np.diff(levels)
    left, right = values[:-1], values[1:]
    s1 = np.concatenate([[0.0], np.cumsum(dq * 0.5 * (left + right))])
    s2 = np.concatenate([[0.0], np.cumsum(dq * (left * left + left * right + right * right) / 3.0)])
    q = np.clip(q, 0.0, 1.0)
    idx = np.clip(np.searchsorted(levels, q, side="right") - 1, 0, levels.size - 2)
    q0 = levels[idx]
    v0, v1 = values[idx], values[idx + 1]
    width = levels[idx + 1] - q0
    frac = np.where(width > 0.0, (q - q0) / np.where(width > 0.0, width, 1.0), 0.0)
    qv = v0 + (v1 - v0) * frac
    part = q - q0
    s1_q = s1[idx] + part * 0.5 * (v0 + qv)
    s2_q = s2[idx] + part * (v0 * v0 + v0 * qv + qv * qv) / 3.0
    return qv, s1_q, s2_q


def quantile_prefixes_oracle(x, q):
    """(Q(q), S1(q)) of the sorted projections x as
    ``ProjectionContext.quantile_prefixes`` read them from the n-long
    cumulative sum C[j] = x[0] + ... + x[j-1], the table path."""
    x = np.asarray(x, dtype=float)
    n = x.size
    c = np.concatenate([[0.0], np.cumsum(x)])
    t = np.clip(q, 0.0, 1.0) * n - 0.5
    tau = np.clip(t, 0.0, n - 1)
    i = tau.astype(np.intp)
    f = tau - i
    x0 = x[i]
    qv = x0 + (x[np.minimum(i + 1, n - 1)] - x0) * f
    s1 = (c[i + 1] - 0.5 * x0 + 0.5 * f * (x0 + qv) + (t - tau) * qv) / n
    return qv, s1


def solve_matching_loop(cost, sq1, sq2):
    """The exact matching of ``transport.d_u`` as a loop over every
    permutation in ``itertools.permutations`` order, keeping the first
    strict minimum: (value, permutation, angle)."""
    best = (np.inf, None, 0.0)
    for perm in itertools.permutations(range(cost.shape[0])):
        perm = np.array(perm)
        value, angle = tp._matching_objective(cost, sq1, sq2, perm)
        if value < best[0]:
            best = (value, perm, angle)
    return best


def ambient_step_fit(model0, data, cfg):
    """A Riemannian fit (vanilla, radam or dadam) whose scatters step as the
    engine stepped them with an ambient momentum: the gradient through
    ``riem_grad_sigma``, the momentum carried to each new point by
    ``transport_sigma``, scaled by one scalar per scatter (radam's running
    max of the decayed mean of w^2, dadam's of p' v p), and each step solved
    for its Lyapunov image at the point it leaves before the retraction.
    Weights and locations move as in ``optim``.  Returns (costs, final
    model)."""
    from emmfit import manifold as mf
    from emmfit.gradients import euclidean_grad

    rng = np.random.default_rng(cfg.seed)
    dataset = mx.as_dataset(data, model0.m)
    k, m, method = model0.k, model0.m, cfg.method
    alpha, beta1, beta2 = cfg.alpha, cfg.beta1, cfg.beta2
    sphere, mus, point = mf.sphere_from_weights(model0.weights), model0.mus.copy(), mf.PdPoint(model0.sigmas)
    pi_moments, mu_moments = optim._FactorMoments((k,)), optim._FactorMoments((k, m))
    u, v, second = np.zeros((k, m, m)), np.zeros(k if method == "radam" else (k, m, m)), np.zeros(k)
    prev, model, costs = None, model0, []
    for _ in range(cfg.max_iters):
        p = tp.random_projections(m, 1, rng)[0]
        ctx = tp.make_projection_context(p, dataset.samples, cov=dataset.covariance)
        projected = tp.project_model(model, ctx)
        costs.append(tp.projected_w2(ctx, projected))
        grad = euclidean_grad(model, ctx, projected)

        tangent = mf.project_sphere_grad(sphere, grad.g_sqrtpi)
        if method == "radam":
            tangent = pi_moments.step(tangent, mf.project_sphere_grad(sphere, pi_moments.m), beta1, beta2)
            mus = mus - alpha * mu_moments.step(grad.g_mu, mu_moments.m, beta1, beta2)
        else:
            mus = mus - alpha * grad.g_mu
        clamped = np.maximum(mf.exp_sphere(sphere, alpha * tangent).s, optim.SQRTPI_FLOOR)
        sphere = mf.SpherePoint(clamped / np.linalg.norm(clamped))

        rgrad = mf.riem_grad_sigma(point, grad.w_sigma, p)
        if method == "vanilla":
            step = -alpha * rgrad
        else:
            carried = np.zeros_like(u) if prev is None else mf.transport_sigma(prev, point.sigma, u)
            u, prev = beta1 * carried + (1.0 - beta1) * rgrad, point
            if method == "radam":
                v = beta2 * v + (1.0 - beta2) * grad.w_sigma**2
                second = np.maximum(second, v)
            else:
                v = beta2 * v + ((1.0 - beta2) * grad.w_sigma**2)[:, None, None] * np.outer(p, p)
                second = np.maximum((v @ p) @ p, second)
            step = -alpha * u / np.sqrt(second + optim.EPS_ADP)[:, None, None]
        point, _ = mf.exp_sigma(point, mf.lyapunov_solve(point, step))
        model = mx.MixtureModel(model0.family, sphere.weights, mus, point)
    return np.array(costs), model


def random_spd(m, rng, base=1.0, spread=0.5):
    a = rng.normal(size=(m, m)) * spread
    return a @ a.T + base * np.eye(m)


def random_gmm(m, k, rng, mu_scale=2.0, balanced=False, base=0.5, spread=0.5):
    mus = rng.normal(scale=mu_scale, size=(k, m))
    sigmas = np.stack([random_spd(m, rng, base=base, spread=spread) for _ in range(k)])
    pi = np.full(k, 1.0 / k) if balanced else rng.dirichlet(np.ones(k))
    return mx.MixtureModel(fam.gaussian(m), pi, mus, sigmas)


ASSIGNMENT_CUTOFF = 2048  # largest sample count for exact discrete matching
SLICED_FALLBACK_PROJECTIONS = 512


def _materialize(side, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(side, mx.MixtureModel):
        return mx.sample_mixture(side, rng, n).samples
    samples = side.samples if isinstance(side, mx.Dataset) else np.asarray(side, dtype=float)
    if samples.shape[0] > n:
        idx = np.sort(rng.choice(samples.shape[0], size=n, replace=False))
        return samples[idx]
    return samples


def w2_method(n: int, m: int) -> str:
    """Which estimator mc_mixture_w2 uses for a given size and dimension."""
    if m == 1:
        return "sorted"
    return "assignment" if n <= ASSIGNMENT_CUTOFF else "sliced"


def mc_mixture_w2(side1, side2, rng: np.random.Generator, n: int = 1024) -> float:
    """Monte Carlo oracle: the empirical squared Wasserstein distance
    between two sample clouds.

    Each side is a MixtureModel (sampled at size n) or sample data
    (subsampled to size n).  1-D uses sorted matching; m > 1 solves the
    assignment problem exactly up to the cutoff, beyond which the sliced
    approximation with 512 projections is used (see ``w2_method``).
    """
    sides = [side1, side2]
    counts = [
        n if isinstance(s, mx.MixtureModel) else min(n, np.asarray(getattr(s, "samples", s)).shape[0])
        for s in sides
    ]
    size = min(counts)
    if size < 2:
        raise MismatchError("need at least two samples per side")
    x = _materialize(side1, rng, size)
    y = _materialize(side2, rng, size)
    if x.shape != y.shape:
        raise MismatchError("sample clouds must have equal shape")
    m = x.shape[1]
    method = w2_method(size, m)
    if method == "sorted":
        diff = np.sort(x[:, 0]) - np.sort(y[:, 0])
        return float(np.mean(diff * diff))
    if method == "assignment":
        costs = cdist(x, y, metric="sqeuclidean")
        rows, cols = linear_sum_assignment(costs)
        return float(costs[rows, cols].mean())
    total = 0.0
    for p in tp.random_projections(m, SLICED_FALLBACK_PROJECTIONS, rng):
        diff = np.sort(x @ p) - np.sort(y @ p)
        total += float(np.mean(diff * diff))
    return total / SLICED_FALLBACK_PROJECTIONS


def exact_w2_1d_gmm(model_a, model_b, nodes=100_000, span=12.0):
    """Exact squared W2 between 1-D Gaussian mixtures by quantile integration.

    Both quantile functions are read off dense CDF grids and the squared
    gap is integrated over midpoint quantile levels.
    """
    sig_a = np.sqrt(model_a.sigmas[:, 0, 0])
    sig_b = np.sqrt(model_b.sigmas[:, 0, 0])
    lo = min((model_a.mus[:, 0] - span * sig_a).min(), (model_b.mus[:, 0] - span * sig_b).min())
    hi = max((model_a.mus[:, 0] + span * sig_a).max(), (model_b.mus[:, 0] + span * sig_b).max())
    ys = np.linspace(lo, hi, nodes)

    def mixture_cdf(model):
        total = np.zeros_like(ys)
        for w, mu, s2 in zip(model.weights, model.mus[:, 0], model.sigmas[:, 0, 0]):
            total += w * stats.norm.cdf(ys, loc=mu, scale=np.sqrt(s2))
        return total

    levels = (np.arange(nodes) + 0.5) / nodes
    qa = np.interp(levels, mixture_cdf(model_a), ys)
    qb = np.interp(levels, mixture_cdf(model_b), ys)
    return float(np.mean((qa - qb) ** 2))


def line_ctx(x, n_grid=None):
    """``make_projection_context`` along the one direction of 1-D samples x;
    given n_grid, its grid's span laid with n_grid nodes instead, through
    the validated ``ProjectionContext``."""
    samples = np.asarray(x, dtype=float)[:, None]
    ctx = tp.make_projection_context(np.array([1.0]), samples, cov=mx.sample_covariance(samples))
    if n_grid is None:
        return ctx
    return tp.ProjectionContext(ctx.p, ctx.projected_samples, np.linspace(ctx.grid[0], ctx.grid[-1], n_grid))


def stratified_target_ctx(p, rng, n=4000, n_grid=1024, k_target=3, span=3.0):
    """ProjectionContext whose target is quantile-stratified, not sampled.

    A raw random sample's quantile function carries order-statistic jitter
    that shows up as objective noise at finite-difference scales; exact
    quantiles of a smooth reference mixture keep the cost differentiable
    while exercising the same code path.
    """
    mus = rng.uniform(-span, span, size=k_target)
    sds = rng.uniform(0.7, 1.6, size=k_target)
    w = rng.dirichlet(np.ones(k_target) * 5.0)
    ys = np.linspace(mus.min() - 9.0 * sds.max(), mus.max() + 9.0 * sds.max(), 200_001)
    cdf = np.zeros_like(ys)
    for wi, mu, sd in zip(w, mus, sds):
        cdf += wi * stats.norm.cdf(ys, loc=mu, scale=sd)
    levels = (np.arange(n) + 0.5) / n
    # Truncate the reference at +-2.5 sd so the extreme quantile-function
    # segments keep bounded slopes; unbounded extreme spacings put large
    # slope kinks exactly where central differences sample them.
    lo = float(np.interp(mus.min() - 2.5 * sds.max(), ys, cdf))
    hi = float(np.interp(mus.max() + 2.5 * sds.max(), ys, cdf))
    target = np.interp(lo + levels * (hi - lo), cdf, ys)
    spread = target.std()
    grid = np.linspace(target[0] - 4.0 * spread, target[-1] + 4.0 * spread, n_grid)
    return tp.ProjectionContext(np.asarray(p, dtype=float), target, grid)


def projection_cost(family, weights, mus, sigmas, ctx):
    projected = tp.project_components(family, weights, mus, sigmas, ctx)
    return tp.projected_w2(ctx, projected)


def fd_gradient_errors(model, ctx, h=1e-5):
    """Entrywise |analytic - central difference| for sqrt-weights, mus, sigmas.

    Returns (errors, references): flat arrays of absolute gaps and the
    matching |fd| magnitudes, ordered sqrt(pi) entries, mu entries, Sigma
    entries.  ``h`` may be a ladder of step sizes; each entry keeps its
    best-agreeing step (kink crossings of the piecewise transport make
    any single step sporadically noisy).
    """
    from emmfit import gradients as gr
    projected = tp.project_model(model, ctx)
    grad = gr.euclidean_grad(model, ctx, projected)

    family = model.family
    sqrtpi = np.sqrt(model.weights)
    ladder = (h,) if np.isscalar(h) else tuple(h)
    errors, references = [], []

    def probe(param_setter, base, analytic):
        best = (np.inf, 0.0)
        for step_scale in ladder:
            step = step_scale * max(1.0, abs(base))
            up = projection_cost(family, *param_setter(base + step), ctx)
            down = projection_cost(family, *param_setter(base - step), ctx)
            fd = (up - down) / (2.0 * step)
            err = abs(analytic - fd)
            if err < best[0]:
                best = (err, abs(fd))
            if err <= max(1e-4 * abs(fd), 1e-7):
                break
        errors.append(best[0])
        references.append(best[1])

    for i in range(model.k):
        def set_sqrtpi(value, i=i):
            s = sqrtpi.copy()
            s[i] = value
            return s * s, model.mus, model.sigmas

        probe(set_sqrtpi, sqrtpi[i], grad.g_sqrtpi[i])

    for i in range(model.k):
        for d in range(model.m):
            def set_mu(value, i=i, d=d):
                mus = model.mus.copy()
                mus[i, d] = value
                return model.weights, mus, model.sigmas

            probe(set_mu, model.mus[i, d], grad.g_mu[i, d])

    g_sigma = grad.g_sigma
    for i in range(model.k):
        for r in range(model.m):
            for c in range(model.m):
                def set_sigma(value, i=i, r=r, c=c):
                    sigmas = model.sigmas.copy()
                    sigmas[i, r, c] = value
                    return model.weights, model.mus, sigmas

                probe(set_sigma, model.sigmas[i, r, c], g_sigma[i, r, c])

    return np.array(errors), np.array(references)


def random_model_for_grad(family, k, rng, mu_span=2.0):
    m = family.m
    mus = rng.uniform(-mu_span, mu_span, size=(k, m))
    sigmas = np.empty((k, m, m))
    for i in range(k):
        a = rng.normal(size=(m, m)) * 0.3
        sigmas[i] = a @ a.T + np.eye(m) * rng.uniform(0.6, 1.4)
    pi = rng.dirichlet(np.ones(k) * 5.0)
    return mx.MixtureModel(family, pi, mus, sigmas)
