import gc
import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from _helpers import (
    bures_gap_newton,
    exact_w2_1d_gmm,
    line_ctx,
    mc_mixture_w2,
    quantile_prefix_oracle,
    quantile_prefixes_oracle,
    random_gmm,
    random_spd,
    solve_matching_loop,
    w2_method,
)
from emmfit import families as fam
from emmfit import gradients as gr
from emmfit import mixture as mx
from emmfit import optim
from emmfit import transport as tp
from emmfit.errors import DegenerateGridError, MismatchError, UndefinedSecondMomentError


def gaussian_component(mu, sigma, m=None):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return fam.EllipticalComponent(mu, np.atleast_2d(sigma), fam.gaussian(m or mu.size))


class TestW2Elliptical:
    def test_identical_components(self):
        c = gaussian_component([0.3, -1.0], np.array([[2.0, 0.4], [0.4, 1.0]]))
        assert tp.w2_elliptical(c, c) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_covariances(self):
        c1 = gaussian_component([0.0, 0.0], np.eye(2))
        c2 = gaussian_component([0.0, 0.0], 4.0 * np.eye(2))
        assert tp.w2_elliptical(c1, c2) == pytest.approx(2.0, abs=1e-12)

    def test_newton_sqrt_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s1, s2 = random_spd(3, rng), random_spd(3, rng)
            c1 = gaussian_component(rng.normal(size=3), s1)
            c2 = gaussian_component(rng.normal(size=3), s2)
            expect = float(np.sum((c1.mu - c2.mu) ** 2)) + bures_gap_newton(s1, s2)
            assert tp.w2_elliptical(c1, c2) == pytest.approx(expect, rel=1e-9)

    def test_scatter_scaling(self):
        rng = np.random.default_rng(1)
        s1, s2 = random_spd(3, rng), random_spd(3, rng)
        c = 3.7
        base = tp.w2_elliptical(gaussian_component(np.zeros(3), s1), gaussian_component(np.zeros(3), s2))
        scaled = tp.w2_elliptical(
            gaussian_component(np.zeros(3), c**2 * s1), gaussian_component(np.zeros(3), c**2 * s2)
        )
        assert scaled == pytest.approx(c**2 * base, rel=1e-12)

    def test_r2_weight(self):
        # Student-t (v=5): E[R^2]/m = v/(v-2) scales only the scatter term.
        family = fam.PearsonVII(m=2, v=5.0, s=(2 + 5) / 2.0)
        c1 = fam.EllipticalComponent(np.zeros(2), np.eye(2), family)
        c2 = fam.EllipticalComponent(np.ones(2), 4.0 * np.eye(2), family)
        assert tp.w2_elliptical(c1, c2) == pytest.approx(2.0 + (5.0 / 3.0) * 2.0, rel=1e-12)

    def test_undefined_second_moment(self):
        family = fam.cauchy(2)
        c1 = fam.EllipticalComponent(np.zeros(2), np.eye(2), family)
        c2 = fam.EllipticalComponent(np.ones(2), np.eye(2), family)
        with pytest.raises(UndefinedSecondMomentError):
            tp.w2_elliptical(c1, c2)
        assert tp.w2_elliptical(c1, c2, unit_weight=True) == pytest.approx(2.0, abs=1e-12)

    def test_family_mismatch(self):
        c1 = gaussian_component([0.0], [[1.0]])
        c2 = fam.EllipticalComponent([0.0], [[1.0]], fam.Logistic(m=1))
        with pytest.raises(MismatchError):
            tp.w2_elliptical(c1, c2)


class TestDU:
    def test_self_distance(self):
        rng = np.random.default_rng(2)
        model = random_gmm(2, 3, rng)
        value, plan = tp.d_u(model, model)
        assert value <= 1e-12
        assert np.array_equal(plan.permutation, np.arange(3))

    def test_k1_reduces_to_w2(self):
        rng = np.random.default_rng(3)
        a = random_gmm(2, 1, rng)
        b = random_gmm(2, 1, rng)
        value, plan = tp.d_u(a, b)
        assert value == pytest.approx(tp.w2_elliptical(a.component(0), b.component(0)), rel=1e-14)
        assert plan.probability_term == pytest.approx(0.0, abs=1e-12)

    def test_k2_crossed_components_enumeration(self):
        # Far-separated crossed pair: matching must pair nearest components
        # and the value is the mean of the two matched distances.
        g = fam.gaussian(1)
        a = mx.MixtureModel(g, [0.5, 0.5], [[-10.0], [10.0]], [np.eye(1), np.eye(1)])
        b = mx.MixtureModel(g, [0.5, 0.5], [[10.5], [-10.5]], [np.eye(1), np.eye(1)])
        value, plan = tp.d_u(a, b)
        assert np.array_equal(plan.permutation, [1, 0])
        assert value == pytest.approx(0.5 * (0.5**2 + 0.5**2), rel=1e-12)
        # enumerate both permutations by hand
        direct = 0.5 * (20.5**2 + 20.5**2)
        assert value < direct

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3, 4):
            a = random_gmm(2, k, rng)
            b = random_gmm(2, k, rng)
            vab, pab = tp.d_u(a, b)
            vba, pba = tp.d_u(b, a)
            assert vab == vba
            inverse = np.empty(k, dtype=int)
            inverse[pab.permutation] = np.arange(k)
            assert np.array_equal(pba.permutation, inverse)

    def test_sqrt_triangle_inequality(self):
        # The square root of the matching objective is a metric; the raw
        # value is not (squared transport costs), so the triangle property
        # is asserted on the square root.
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            a = random_gmm(2, k, rng)
            b = random_gmm(2, k, rng)
            c = random_gmm(2, k, rng)
            dab = math.sqrt(tp.d_u(a, b)[0])
            dac = math.sqrt(tp.d_u(a, c)[0])
            dbc = math.sqrt(tp.d_u(b, c)[0])
            assert dab <= dac + dbc + 1e-9

    def test_heuristic_matches_enumeration_at_k5(self):
        # force the two-stage heuristic and compare with brute force
        import itertools

        rng = np.random.default_rng(6)
        a = random_gmm(2, 5, rng)
        b = random_gmm(2, 5, rng)
        old = tp.K_EXACT
        try:
            tp.K_EXACT = 4
            heuristic, _ = tp.d_u(a, b)
        finally:
            tp.K_EXACT = old
        exact, _ = tp.d_u(a, b)
        assert heuristic == pytest.approx(exact, rel=1e-10)

    def test_mismatch_errors(self):
        rng = np.random.default_rng(7)
        with pytest.raises(MismatchError):
            tp.d_u(random_gmm(2, 2, rng), random_gmm(2, 3, rng))
        with pytest.raises(MismatchError):
            tp.d_u(random_gmm(2, 2, rng), random_gmm(3, 2, rng))

    def test_lemma1_upper_bound_1d(self):
        # For balanced 1-D mixtures the exact mixture W2 (quantile
        # integration oracle) never exceeds the matching distance.
        rng = np.random.default_rng(8)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            a = random_gmm(1, k, rng, balanced=True)
            b = random_gmm(1, k, rng, balanced=True)
            exact = exact_w2_1d_gmm(a, b)
            assert exact <= tp.d_u(a, b)[0] + 1e-6


def matching_inputs(a, b):
    """The pairwise costs and unit sqrt-weight vectors ``d_u`` matches over."""
    sq1, sq2 = np.sqrt(a.weights), np.sqrt(b.weights)
    return tp._pairwise_w2(a, b, False), sq1 / np.linalg.norm(sq1), sq2 / np.linalg.norm(sq2)


def with_duplicate(model, i, j):
    """model with component j replaced by a copy of component i."""
    mus, sigmas = model.mus.copy(), model.sigmas.copy()
    mus[j], sigmas[j] = mus[i], sigmas[i]
    return mx.MixtureModel(model.family, model.weights, mus, sigmas)


class TestExactMatching:
    """The permutations scored with numpy against a loop over them."""

    def test_pairwise_costs_are_w2_elliptical_bitwise(self):
        rng = np.random.default_rng(30)
        for m, k in ((1, 3), (4, 5), (16, 8)):
            a, b = random_gmm(m, k, rng), random_gmm(m, k, rng)
            want = [[tp.w2_elliptical(a.component(i), b.component(j)) for j in range(k)] for i in range(k)]
            assert tp._pairwise_w2(a, b, False).tobytes() == np.array(want).tobytes()

    def test_pairwise_costs_take_each_trace_once(self, monkeypatch):
        # 2k traces for the k^2 Bures gaps, with the bits of the gap that
        # takes both traces per pair
        rng = np.random.default_rng(31)
        a, b = random_gmm(16, 8, rng), random_gmm(16, 8, rng)
        want = [[tp.w2_elliptical(a.component(i), b.component(j)) for j in range(8)] for i in range(8)]
        traced = []
        real_trace = np.trace
        monkeypatch.setattr(np, "trace", lambda s, *args, **kw: traced.append(s) or real_trace(s, *args, **kw))
        assert tp._pairwise_w2(a, b, False).tobytes() == np.array(want).tobytes()
        assert len(traced) == 16

    @pytest.mark.parametrize("k", range(2, 9))
    def test_unique_minimiser_keeps_the_loop_bits(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(3 if k < 8 else 1):
            cost, sq1, sq2 = matching_inputs(random_gmm(3, k, rng), random_gmm(3, k, rng))
            value, perm, angle = tp._solve_matching(cost, sq1, sq2)
            want_value, want_perm, want_angle = solve_matching_loop(cost, sq1, sq2)
            assert (value, angle) == (want_value, want_angle)
            assert np.array_equal(perm, want_perm)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_ties_give_a_minimiser(self, k):
        # equal weights and a duplicated component: swapping the copies
        # leaves the objective unchanged up to rounding
        rng = np.random.default_rng(50 + k)
        a = with_duplicate(random_gmm(2, k, rng, balanced=True), 0, 1)
        for b in (random_gmm(2, k, rng, balanced=True), a):
            cost, sq1, sq2 = matching_inputs(a, b)
            value, perm, angle = tp._solve_matching(cost, sq1, sq2)
            want_value, _, _ = solve_matching_loop(cost, sq1, sq2)
            assert sorted(perm.tolist()) == list(range(k))
            assert (value, angle) == tp._matching_objective(cost, sq1, sq2, perm)
            assert value == pytest.approx(want_value, rel=1e-15, abs=1e-15)

    def test_all_tied_matchings_give_zero(self):
        # every permutation of 8 identical balanced components ties
        rng = np.random.default_rng(60)
        one = random_gmm(2, 1, rng)
        a = mx.MixtureModel(
            one.family, np.full(8, 0.125), np.repeat(one.mus, 8, axis=0), np.repeat(one.sigmas, 8, axis=0)
        )
        value, plan = tp.d_u(a, a)
        assert value == 0.0
        assert sorted(plan.permutation.tolist()) == list(range(8))

    def test_eight_components_take_under_10_ms(self):
        rng = np.random.default_rng(61)
        a, b = random_gmm(16, 8, rng), random_gmm(16, 8, rng)
        tp.d_u(a, b)
        assert min(timeit.repeat(lambda: tp.d_u(a, b), number=1, repeat=5)) < 0.010


PREFIX_PATHS = pytest.mark.parametrize("ratio", [10**9, 0], ids=["table", "segments"])


class TestPrefixPaths:
    """``quantile_prefixes`` on either side of PREFIX_TABLE_RATIO: the n-long
    cumulative sum, or segment sums between the asked ranks."""

    @staticmethod
    def levels(n, rng):
        knots = (np.arange(n) + 0.5) / n
        ends = [knots[0], knots[-1], np.nextafter(knots[0], 0.0), np.nextafter(knots[-1], 1.0)]
        return {
            "sorted": np.sort(rng.uniform(0.0, 1.0, 257)),
            "unsorted": rng.uniform(0.0, 1.0, 257),
            "repeated": np.repeat(np.sort(rng.uniform(0.0, 1.0, 40)), rng.integers(1, 4, 40)),
            "repeated unsorted": np.repeat(rng.uniform(0.0, 1.0, 40), 3)[::-1],
            "outside": np.array([-1.0, -0.2, 0.0, 0.5, 1.0, 1.3, 2.0]),
            "outside unsorted": rng.uniform(-0.5, 1.5, 100),
            "end knots": np.array(ends + ends[::-1]),
            "one level": np.array([0.3]),
        }

    @PREFIX_PATHS
    @pytest.mark.parametrize("n", [1, 2, 1000, 50_000])
    def test_matches_the_cumulative_sum(self, n, ratio, monkeypatch):
        monkeypatch.setattr(tp, "PREFIX_TABLE_RATIO", ratio)
        rng = np.random.default_rng(n)
        x = np.sort(3.0 * rng.standard_normal(n) + 1.0)
        # S1 is a prefix sum over n: its rounding is relative to this scale
        scale = np.abs(x).sum() / n
        for name, q in self.levels(n, rng).items():
            ctx = line_ctx(x)
            q_val, s1 = ctx.quantile_prefixes(q)
            assert ("_prefix_sums" in ctx.__dict__) == (ratio > 0), name
            q_ref, s1_ref = quantile_prefixes_oracle(ctx.projected_samples, q)
            assert q_val.tobytes() == q_ref.tobytes(), name
            np.testing.assert_allclose(s1, s1_ref, rtol=0.0, atol=1e-13 * scale, err_msg=name)

    def test_the_split_keeps_small_contexts_on_the_table(self):
        # a fit step asks for 1025 levels (the cost) and 1023 (the gradient)
        rng = np.random.default_rng(70)
        for n in (4000, 100_000):
            ctx = line_ctx(rng.standard_normal(n))
            ctx.quantile_prefixes(np.linspace(0.0, 1.0, 1025))
            ctx.quantile_prefixes(np.linspace(0.0, 1.0, 1025)[1:-1])
            assert ("_prefix_sums" in ctx.__dict__) == (n <= tp.PREFIX_TABLE_RATIO * 1023)

    def test_fit_is_bitwise_the_table_fit(self, monkeypatch):
        # S1 feeds only the reported cost: the iterates keep every bit and
        # the cost trace moves by rounding
        data = mx.generate_synthetic(2, 3, 40_000, 4.0, 3.0, np.random.default_rng(71))
        assert data.samples.shape[0] > tp.PREFIX_TABLE_RATIO * 1025
        model0 = optim.initialize(data, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(72))
        cfg = optim.OptimizerConfig(method="dadam", alpha=0.03, max_iters=40, seed=73)
        segments = optim.fit(model0, data, cfg)
        monkeypatch.setattr(tp, "PREFIX_TABLE_RATIO", 10**9)
        table = optim.fit(model0, data, cfg)
        assert not segments.failed and segments.iterations == table.iterations == 40
        for got, want in zip(
            (segments.final_model.weights, segments.final_model.mus, segments.final_model.sigmas),
            (table.final_model.weights, table.final_model.mus, table.final_model.sigmas),
        ):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(segments.costs, table.costs, rtol=1e-10, atol=0.0)


class TestSemiDiscrete1D:
    """The 1-D cost of projected_w2 on 1-D Gaussian mixtures."""

    def make_ctx(self, samples, n_grid=1024):
        return line_ctx(samples, n_grid)

    def cost(self, ctx, weights, mus, variances):
        model = mx.MixtureModel(
            fam.gaussian(1), np.asarray(weights), np.asarray(mus)[:, None],
            np.asarray(variances)[:, None, None],
        )
        return tp.projected_w2(ctx, tp.project_model(model, ctx))

    def test_matched_spikes(self):
        samples = np.repeat([0.0, 1.0], 500)
        ctx = self.make_ctx(samples, n_grid=4096)
        width = 0.003
        assert self.cost(ctx, [0.5, 0.5], [0.0, 1.0], [width**2, width**2]) < 1e-4

    def test_self_distance_gaussian(self):
        rng = np.random.default_rng(9)
        ctx = self.make_ctx(rng.standard_normal(100_000))
        assert self.cost(ctx, [1.0], [0.0], [1.0]) < 5e-3

    def test_point_target_second_moment(self):
        # all mass must travel to c=2: integral (y-2)^2 phi(y) dy = 1 + 4,
        # cross-checked by an independent quadrature at high resolution.
        samples = np.full(4000, 2.0)
        ctx = self.make_ctx(samples, n_grid=8192)
        got = self.cost(ctx, [1.0], [0.0], [1.0])
        ys = np.linspace(-9.0, 9.0, 400_001)
        oracle = np.trapezoid((ys - 2.0) ** 2 * stats.norm.pdf(ys), ys)
        assert got == pytest.approx(oracle, rel=1e-3)
        assert oracle == pytest.approx(5.0, rel=1e-6)

    def test_degenerate_density(self):
        # the model's mass lies far outside the grid laid over the data
        ctx = self.make_ctx(np.array([0.0, 1.0]))
        with pytest.raises(DegenerateGridError):
            self.cost(ctx, [1.0], [1e4], [1.0])


class TestProjectionContextChecks:
    """A context built from outside is checked; ``make_projection_context``
    checks p, sorts, and reads the spread from the sample covariance."""

    GRID = np.linspace(-3.0, 3.0, 8)

    def test_outside_context_refuses_unsorted_samples(self):
        with pytest.raises(MismatchError, match="sorted"):
            tp.ProjectionContext(np.array([1.0]), np.array([0.5, -0.5]), self.GRID)

    def test_outside_context_refuses_a_non_unit_direction(self):
        with pytest.raises(MismatchError, match="unit norm"):
            tp.ProjectionContext(np.array([0.6, 0.9]), np.array([-0.5, 0.5]), self.GRID)

    def test_trusted_context_refuses_a_non_unit_direction(self):
        with pytest.raises(MismatchError, match="unit norm"):
            tp.make_projection_context(np.array([1.0, 1.0]), np.zeros((4, 2)), cov=np.eye(2))

    def test_covariance_is_required(self):
        with pytest.raises(TypeError, match="cov"):
            tp.make_projection_context(np.array([1.0]), np.zeros((4, 1)))

    @staticmethod
    def spread_of(ctx, margin_sigmas):
        x = ctx.projected_samples
        return ((ctx.grid[-1] - ctx.grid[0]) - (x[-1] - x[0])) / (2.0 * margin_sigmas)

    @pytest.mark.parametrize("m", (1, 2, 8))
    def test_spread_is_the_projections_std(self, m):
        rng = np.random.default_rng(30 + m)
        samples = 5.0 + rng.normal(size=(5000, m)) @ rng.normal(size=(m, m))
        cov = mx.sample_covariance(samples)
        for p in tp.random_projections(m, 8, rng):
            ctx = tp.make_projection_context(p, samples, margin_sigmas=3.0, cov=cov)
            assert np.all(np.diff(ctx.projected_samples) >= 0.0)
            want = ctx.projected_samples.std()
            assert self.spread_of(ctx, 3.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("value", (0.25, -2.5, 40.0))
    def test_constant_samples_fall_back_to_their_magnitude(self, value):
        samples = np.full((64, 1), value)
        assert samples[:, 0].std() == 0.0
        ctx = line_ctx(samples[:, 0])
        assert self.spread_of(ctx, 4.0) == pytest.approx(max(1.0, abs(value)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_grid", (0, 1, -3))
    def test_refuses_a_grid_of_fewer_than_two_nodes(self, n_grid):
        with pytest.raises(MismatchError, match="at least 2 nodes"):
            line_ctx(np.arange(5.0), n_grid=n_grid)

    @pytest.mark.parametrize("margin", (-1.0, -1e-300, np.nan, np.inf, -np.inf))
    def test_refuses_a_margin_that_is_negative_or_not_finite(self, margin):
        with pytest.raises(MismatchError, match="margin"):
            line_ctx(np.arange(5.0), margin_sigmas=margin)

    def test_takes_the_smallest_grid_and_no_margin(self):
        x = np.array([-1.0, 0.5, 2.0])
        ctx = line_ctx(x, n_grid=2, margin_sigmas=0.0)
        assert ctx.grid.tolist() == [-1.0, 2.0]
        ctx = line_ctx(np.full(3, 2.0), margin_sigmas=0.0)
        assert np.all(ctx.grid == 2.0)

    def test_keeps_no_grid_weights(self):
        ctx = line_ctx(np.arange(5.0))
        assert "grid_weights" not in vars(ctx)


def test_random_projections_divide_by_numpys_row_norms():
    for m, count in ((1, 3), (2, 5), (16, 40), (33, 7)):
        got = tp.random_projections(m, count, np.random.default_rng(m))
        raw = np.random.default_rng(m).standard_normal((count, m))
        assert got.tobytes() == (raw / np.linalg.norm(raw, axis=1, keepdims=True)).tobytes()


@pytest.mark.parametrize("ratio", [10**9, 0], ids=["table", "segments"])
def test_quantile_prefixes_never_write_the_levels(ratio, monkeypatch):
    # a fit step reads the levels of projected.bounds twice, once whole and
    # once as its interior view
    monkeypatch.setattr(tp, "PREFIX_TABLE_RATIO", ratio)
    rng = np.random.default_rng(16)
    ctx = line_ctx(rng.standard_normal(3000))
    bounds = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 63)), [1.0]])
    unsorted = np.array([0.7, -0.2, 1.3, 0.0, 1.0, 0.25])
    for q in (bounds, bounds[1:-1], unsorted, bounds[::-1]):
        before = q.tobytes()
        q.flags.writeable = False
        first = ctx.quantile_prefixes(q)
        assert q.tobytes() == before
        second = ctx.quantile_prefixes(q)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


def quantile_ctx(x):
    return line_ctx(x)


def knot_levels(n):
    """q = 0 and 1, every knot (j + 1/2)/n with both float neighbours, and
    random levels out of order, some outside [0, 1]."""
    knots = (np.arange(n) + 0.5) / n
    rng = np.random.default_rng(n)
    return np.concatenate(
        [[0.0, 1.0], knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0), rng.uniform(-0.5, 1.5, 200)]
    )


def assert_matches_oracle(x, q):
    ctx = quantile_ctx(x)
    q_val, s1 = ctx.quantile_prefixes(q)
    q_ref, s1_ref, _ = quantile_prefix_oracle(ctx.projected_samples, q)
    tol = 1e-12 * np.max(np.abs(x))
    np.testing.assert_allclose(q_val, q_ref, rtol=0.0, atol=tol)
    np.testing.assert_allclose(s1, s1_ref, rtol=0.0, atol=tol)


class TestQuantileReads:
    """Q and its prefix integral read in place, against the tabulated
    breakpoints searched level by level."""

    SAMPLES = {
        "one": np.array([3.5]),
        "two": np.array([-2.0, 7.0]),
        "three": np.array([4.0, -1.0, 9.5]),
        "thousand": 10.0 * np.random.default_rng(20).standard_normal(1000),
        "ties": np.repeat([-4.0, 0.5, 0.5, 6.0], [3, 1, 2, 4]),
        "all tied": np.full(5, -2.5),
    }

    @pytest.mark.parametrize("name", SAMPLES)
    def test_matches_oracle_at_every_knot(self, name):
        x = self.SAMPLES[name]
        assert_matches_oracle(x, knot_levels(x.size))

    @pytest.mark.parametrize("name", SAMPLES)
    def test_second_moment_matches_oracle(self, name):
        x = self.SAMPLES[name]
        ctx = quantile_ctx(x)
        _, _, s2 = quantile_prefix_oracle(ctx.projected_samples, np.array([0.0, 1.0]))
        assert ctx.quantile_second_moment == pytest.approx(s2[1] - s2[0], rel=1e-14, abs=0.0)

    def test_flat_outside_the_knots(self):
        ctx = quantile_ctx([1.0, 2.0, 4.0])
        q_val, s1 = ctx.quantile_prefixes(np.array([-0.3, 0.0, 1.0 / 6.0, 5.0 / 6.0, 1.0, 1.2]))
        np.testing.assert_array_equal(q_val, [1.0, 1.0, 1.0, 4.0, 4.0, 4.0])
        np.testing.assert_allclose(s1, [0.0, 0.0, 1.0 / 6.0, 7.0 / 3.0 - 4.0 / 6.0, 7.0 / 3.0, 7.0 / 3.0])

    @settings(max_examples=200, deadline=None)
    @given(
        x=arrays(np.float64, st.integers(1, 40), elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
        q=arrays(np.float64, st.integers(1, 64), elements=st.floats(-0.5, 1.5)),
    )
    def test_matches_oracle_on_any_levels(self, x, q):
        assert_matches_oracle(np.sort(x), q)


def test_cost_and_gradient_hold_no_n_sized_tables():
    # Only the prefix sum of the n projections may outlive the calls; the
    # family's kernel table is built before tracing starts.
    rng = np.random.default_rng(21)
    model = random_gmm(2, 3, rng)
    samples = mx.sample_mixture(model, rng, 100_000).samples
    p = tp.random_projections(2, 1, rng)[0]
    ctx = tp.make_projection_context(p, samples, cov=mx.sample_covariance(samples))
    tp.project_model(model, ctx)
    nbytes = ctx.projected_samples.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        projected = tp.project_model(model, ctx)
        tp.projected_w2(ctx, projected)
        gr.euclidean_grad(model, ctx, projected)
        del projected
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * nbytes
    assert held - before <= 1.2 * nbytes


class TestSlicedCost:
    def test_near_zero_at_truth(self):
        rng = np.random.default_rng(13)
        model = random_gmm(2, 2, rng)
        data = mx.sample_mixture(model, rng, 100_000)
        projections = tp.random_projections(2, 16, rng)
        assert tp.sliced_cost(model, data, projections) < 5e-3

    def test_axis_projection_matches_marginal(self):
        rng = np.random.default_rng(14)
        model = mx.MixtureModel(
            fam.gaussian(2),
            [0.5, 0.5],
            [[-2.0, 0.0], [2.0, 0.0]],
            [np.diag([1.0, 0.5]), np.diag([0.7, 2.0])],
        )
        data = mx.sample_mixture(model, rng, 20_000)
        e1 = np.array([1.0, 0.0])
        cost_2d = tp.sliced_cost(model, data, [e1])
        marginal = mx.MixtureModel(
            fam.gaussian(1), [0.5, 0.5], [[-2.0], [2.0]], [np.eye(1), np.eye(1) * 0.7]
        )
        cost_1d = tp.sliced_cost(marginal, data.samples[:, :1], [np.array([1.0])])
        assert cost_2d == pytest.approx(cost_1d, rel=1e-10)

    def test_discriminates_towards_truth(self):
        # Sanity against the exact empirical-transport oracle: the sliced
        # cost is finite, positive, and drops at the oracle's optimum
        # (the generating parameters) relative to detuned ones.
        rng = np.random.default_rng(15)
        truth = random_gmm(2, 3, rng, mu_scale=3.0)
        data = mx.sample_mixture(truth, rng, 20_000)
        detuned = mx.MixtureModel(
            truth.family, truth.weights, truth.mus + 1.5, truth.sigmas * 2.0
        )
        projections = tp.random_projections(2, 32, rng)
        at_truth = tp.sliced_cost(truth, data, projections)
        at_detuned = tp.sliced_cost(detuned, data, projections)
        assert 0.0 < at_truth < at_detuned
        oracle_truth = mc_mixture_w2(truth, data, np.random.default_rng(0), n=1024)
        oracle_detuned = mc_mixture_w2(detuned, data, np.random.default_rng(0), n=1024)
        assert oracle_truth < oracle_detuned


class TestMcMixtureW2:
    def test_identical_sets(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(256, 2))
        assert mc_mixture_w2(x, x.copy(), rng, n=256) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_sets(self):
        rng = np.random.default_rng(17)
        assert mc_mixture_w2(
            np.zeros((2, 1)), np.full((2, 1), 3.0), rng, n=2
        ) == pytest.approx(9.0, abs=1e-12)

    def test_gaussian_clouds_vs_closed_form(self):
        rng = np.random.default_rng(18)
        c1 = gaussian_component([0.0, 0.0], np.eye(2))
        c2 = gaussian_component([2.0, -1.0], np.array([[1.5, 0.3], [0.3, 0.8]]))
        closed = tp.w2_elliptical(c1, c2)
        m1 = mx.MixtureModel(c1.family, [1.0], [c1.mu], [c1.sigma])
        m2 = mx.MixtureModel(c2.family, [1.0], [c2.mu], [c2.sigma])
        est = mc_mixture_w2(m1, m2, rng, n=1024)
        assert est == pytest.approx(closed, rel=0.05)

    def test_method_tags(self):
        assert w2_method(100, 1) == "sorted"
        assert w2_method(1024, 3) == "assignment"
        assert w2_method(5000, 3) == "sliced"

    def test_sliced_fallback_close_to_assignment(self):
        rng = np.random.default_rng(19)
        model_a = random_gmm(2, 2, rng, mu_scale=1.0)
        model_b = random_gmm(2, 2, rng, mu_scale=1.0)
        exact = mc_mixture_w2(model_a, model_b, np.random.default_rng(1), n=2048)
        sliced = mc_mixture_w2(model_a, model_b, np.random.default_rng(1), n=4096)
        # sliced 1-D averages underestimate the full coupling cost
        assert sliced < exact * 1.05
