import numpy as np
import pytest
from scipy import stats

from _helpers import fd_gradient_errors, line_ctx, random_model_for_grad, stratified_target_ctx
from emmfit import families as fam
from emmfit import gradients as gr
from emmfit import manifold as mf
from emmfit import mixture as mx
from emmfit import transport as tp
from emmfit.errors import UnsupportedGradientError


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestEuclideanGrad:
    def test_matched_model_gives_tiny_gradients(self):
        # target = the model's own quantiles: T(y) ~ y, so every gradient
        # integral carries a near-zero displacement.
        model = mx.MixtureModel(fam.gaussian(1), [1.0], [[0.4]], [[[1.3]]])
        levels = (np.arange(20_000) + 0.5) / 20_000
        target = stats.norm.ppf(levels, loc=0.4, scale=np.sqrt(1.3))
        ctx = line_ctx(target)
        grad = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        assert abs(grad.g_mu[0, 0]) < 1e-3
        assert abs(grad.w_sigma[0]) < 1e-3

    def test_location_gradient_points_at_data(self):
        # data shifted right of the model: descending along g_mu must move
        # the location right, so the gradient itself is negative.
        model = mx.MixtureModel(fam.gaussian(1), [1.0], [[-1.5]], [np.eye(1)])
        levels = (np.arange(2000) + 0.5) / 2000
        target = stats.norm.ppf(levels, loc=1.5)
        ctx = line_ctx(target)
        grad = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        assert grad.g_mu[0, 0] < 0.0

    def test_rank_one_scatter_structure(self):
        rng = np.random.default_rng(2)
        model = random_model_for_grad(fam.Logistic(m=3), 2, rng)
        ctx = stratified_target_ctx(unit([0.3, -1.0, 0.5]), rng)
        grad = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        pp = np.outer(ctx.p, ctx.p)
        for i in range(model.k):
            assert np.array_equal(grad.g_sigma[i], grad.w_sigma[i] * pp)

    def test_weight_gradient_has_no_radial_component(self):
        # The implemented cost renormalizes the projected density, so it is
        # invariant along the radial sqrt-weight direction; the centered
        # variation must already cancel that component.
        rng = np.random.default_rng(3)
        model = random_model_for_grad(fam.gaussian(2), 3, rng)
        ctx = stratified_target_ctx(unit([0.8, -0.6]), rng)
        grad = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        s = np.sqrt(model.weights)
        radial = float(s @ grad.g_sqrtpi) / max(np.linalg.norm(grad.g_sqrtpi), 1e-30)
        assert abs(radial) < 1e-10
        projected_grad = mf.project_sphere_grad(mf.SpherePoint(s), grad.g_sqrtpi)
        assert abs(s @ projected_grad) < 1e-12

    def test_unsupported_family(self):
        rng = np.random.default_rng(4)
        model = mx.MixtureModel(fam.AlphaStable(m=2, alpha=1.5), [1.0], [np.zeros(2)], [np.eye(2)])
        ctx = stratified_target_ctx(unit([1.0, 0.0]), rng)
        with pytest.raises(UnsupportedGradientError):
            gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))


class TestFiniteDifferenceAgreement:
    def check(self, family, k, seeds, h):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            model = random_model_for_grad(family, k, rng)
            ctx = stratified_target_ctx(unit(rng.normal(size=family.m)), rng, n=8000)
            errors, refs = fd_gradient_errors(model, ctx, h=h)
            assert np.all(errors <= np.maximum(1e-4 * refs, 1e-7)), (family.name, seed)

    def test_k2_m2_gaussian_primary(self):
        # the module's reference configuration: every entry at h=1e-5
        self.check(fam.gaussian(2), 2, seeds=range(3), h=1e-5)

    @pytest.mark.parametrize(
        "family",
        [
            fam.PearsonVII(m=2, v=5.0, s=3.5),
            fam.Logistic(m=2),
            fam.Kotz(m=2, a=2.0, b=1.0, s=1.0),
            fam.Hyperbolic(m=2, v=2.0, a=1.0, lam=1.0),
        ],
        ids=lambda f: f.name,
    )
    def test_other_families(self, family):
        self.check(family, 2, seeds=range(3), h=1e-6)

    def test_k3_m5(self):
        self.check(fam.gaussian(5), 3, seeds=range(2), h=1e-6)


class TestDroppedEdgeNode:
    """A non-finite kernel value at a cell edge (a generator singularity,
    e.g. small-a Kotz at t = 0) contributes nothing to the gradient."""

    def cost_and_grad(self, model, ctx, monkeypatch, node, value):
        real_slope = fam.EllipticalFamily.gen_primitive_slope

        def slope(family, u):
            out = real_slope(family, u)
            if node is not None:
                out[node] = value
            return out

        monkeypatch.setattr(fam.EllipticalFamily, "gen_primitive_slope", slope)
        projected = tp.project_model(model, ctx)
        return tp.projected_w2(ctx, projected), gr.euclidean_grad(model, ctx, projected)

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    def test_matches_the_node_zeroed(self, bad, monkeypatch):
        rng = np.random.default_rng(31)
        model = random_model_for_grad(fam.gaussian(3), 3, rng)
        ctx = stratified_target_ctx(unit([0.2, 0.9, -0.4]), rng)
        _, plain = self.cost_and_grad(model, ctx, monkeypatch, None, None)
        # the edge where component 1's kernel peaks, so the node matters
        u = (tp.cell_edges(ctx.grid) - model.mus[1] @ ctx.p) / np.sqrt(ctx.p @ model.sigmas[1] @ ctx.p)
        node = (1, int(np.argmin(np.abs(u))))
        cost, grad = self.cost_and_grad(model, ctx, monkeypatch, node, bad)
        cost0, grad0 = self.cost_and_grad(model, ctx, monkeypatch, node, 0.0)
        assert np.isfinite(cost)
        assert cost == cost0
        assert grad0.w_sigma[1] != plain.w_sigma[1]
        for got, want in ((grad.g_sqrtpi, grad0.g_sqrtpi), (grad.g_mu, grad0.g_mu), (grad.w_sigma, grad0.w_sigma)):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())
