import numpy as np
import pytest
from scipy import stats

from _helpers import DENSITY_FAMILIES, fd_gradient_errors, line_ctx, random_model_for_grad, stratified_target_ctx
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
        _, g_mu, g_sigma = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        assert abs(g_mu[0, 0]) < 1e-3
        assert abs(g_sigma[0, 0, 0]) < 1e-3

    def test_location_gradient_points_at_data(self):
        # data shifted right of the model: descending along g_mu must move
        # the location right, so the gradient itself is negative.
        model = mx.MixtureModel(fam.gaussian(1), [1.0], [[-1.5]], [np.eye(1)])
        levels = (np.arange(2000) + 0.5) / 2000
        target = stats.norm.ppf(levels, loc=1.5)
        ctx = line_ctx(target)
        _, g_mu, _ = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        assert g_mu[0, 0] < 0.0

    def test_rank_one_scatter_structure(self):
        # every entry of p p' is exactly 0.25 along p = (1, 1, 1, 1) / 2, so
        # each image's weight is 4 times any one of its entries, bit for bit
        rng = np.random.default_rng(2)
        model = random_model_for_grad(fam.Logistic(m=4), 2, rng)
        ctx = stratified_target_ctx(np.full(4, 0.5), rng)
        _, _, g_sigma = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        pp = np.outer(ctx.p, ctx.p)
        assert (pp == 0.25).all()
        for i in range(model.k):
            assert g_sigma[i].tobytes() == ((4.0 * g_sigma[i, 0, 0]) * pp).tobytes()

    def test_weight_gradient_has_no_radial_component(self):
        # The implemented cost renormalizes the projected density, so it is
        # invariant along the radial sqrt-weight direction; the centered
        # variation must already cancel that component.
        rng = np.random.default_rng(3)
        model = random_model_for_grad(fam.gaussian(2), 3, rng)
        ctx = stratified_target_ctx(unit([0.8, -0.6]), rng)
        g_sqrtpi, _, _ = gr.euclidean_grad(model, ctx, tp.project_model(model, ctx))
        s = np.sqrt(model.weights)
        radial = float(s @ g_sqrtpi) / max(np.linalg.norm(g_sqrtpi), 1e-30)
        assert abs(radial) < 1e-10
        projected_grad = mf.project_sphere_grad(s, g_sqrtpi)
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


# every family with a gradient, with the generators that are singular at
# t = 0: Kotz with a < 1 and the hyperbolic a -> 0 branch with nu <= 0
SLOPE_FAMILIES = {
    **DENSITY_FAMILIES,
    "kotz-a0.75": lambda m: fam.Kotz(m=m, a=0.75, b=0.5, s=1.0),
    "kotz-a0.6": lambda m: fam.Kotz(m=m, a=0.6, b=1.0, s=1.5),
    "hyperbolic-nu-0.5": lambda m: fam.Hyperbolic(m=m, v=2.0, a=0.0, lam=0.5),
}
# finite offsets from the origin, through the subnormals and the table's
# last node, to the largest float
FINITE_U = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.5, 3.0, 1e4, 3e7, 1e8, 1e300, 1.7e308, np.finfo(float).max])


class TestFiniteSlopes:
    """The gradient screens no node: every family's primitive slope, and the
    slope times the offset, are finite at every finite offset."""

    @pytest.mark.parametrize("m", (1, 2, 5))
    @pytest.mark.parametrize("name", sorted(SLOPE_FAMILIES))
    def test_slope_and_slope_offset_are_finite(self, name, m):
        u = np.concatenate([-FINITE_U[::-1], FINITE_U])
        slope = SLOPE_FAMILIES[name](m).gen_primitive_slope(u)
        assert np.isfinite(slope).all() and np.isfinite(slope * u).all()
