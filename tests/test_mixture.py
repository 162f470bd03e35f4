import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import logsumexp

from _helpers import (
    DENSITY_FAMILIES,
    component_logpdf_oracle,
    component_logpdf_strided,
    covariance_oracle,
    draw_rows_oracle,
    golden_case,
    random_gmm,
    random_spd,
)
from emmfit import families as fam
from emmfit import mixture as mx
from emmfit import optim
from emmfit import transport as tp
from emmfit.errors import (
    DensityUnavailableError,
    GenerationError,
    InvalidFamilyError,
    MismatchError,
    NotPositiveDefiniteError,
)
from emmfit.manifold import PdPoint


def small_model(m=2, k=3, family=None, seed=0):
    rng = np.random.default_rng(seed)
    family = family or fam.gaussian(m)
    mus = rng.normal(scale=2.0, size=(k, m))
    sigmas = np.empty((k, m, m))
    for i in range(k):
        a = rng.normal(size=(m, m)) * 0.4
        sigmas[i] = a @ a.T + np.eye(m)
    pi = rng.dirichlet(np.ones(k))
    return mx.MixtureModel(family, pi, mus, sigmas)


def naive_pdf(model, x):
    # Direct linear-domain summation, no log-sum-exp: the oracle for pdf.
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(model.k):
        diff = x - model.mus[i]
        t = float(diff @ np.linalg.solve(model.sigmas[i], diff))
        total += (
            model.weights[i]
            * math.exp(float(model.family.log_gen(t)))
            / math.sqrt(np.linalg.det(model.sigmas[i]))
        )
    return total


class TestPdf:
    def test_single_gaussian_peak(self):
        model = mx.MixtureModel(fam.gaussian(2), [1.0], [np.zeros(2)], [np.eye(2)])
        assert mx.pdf(model, np.zeros(2)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_mixture_collapse(self):
        one = mx.MixtureModel(fam.gaussian(2), [1.0], [[0.5, -0.2]], [np.eye(2) * 1.3])
        two = mx.MixtureModel(
            fam.gaussian(2), [0.5, 0.5], [[0.5, -0.2], [0.5, -0.2]], [np.eye(2) * 1.3] * 2
        )
        x = np.array([0.3, 0.9])
        assert mx.pdf(two, x) == pytest.approx(mx.pdf(one, x), rel=1e-14)

    def test_direct_summation_oracle(self):
        model = small_model(m=2, k=3)
        rng = np.random.default_rng(1)
        for x in rng.normal(scale=2.0, size=(10, 2)):
            assert mx.pdf(model, x) == pytest.approx(naive_pdf(model, x), rel=1e-12)

    def test_alpha_stable_pdf_unavailable(self):
        model = mx.MixtureModel(fam.AlphaStable(m=2, alpha=1.5), [1.0], [np.zeros(2)], [np.eye(2)])
        with pytest.raises(DensityUnavailableError):
            mx.pdf(model, np.zeros(2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_density_mass_m1(self, k):
        model = small_model(m=1, k=k, seed=k)
        ys = np.linspace(-40.0, 40.0, 200_001).reshape(-1, 1)
        density = np.exp(model.logpdf(ys))
        assert np.trapezoid(density, ys[:, 0]) == pytest.approx(1.0, abs=1e-2)

    def test_invalid_weights(self):
        with pytest.raises(InvalidFamilyError):
            mx.MixtureModel(fam.gaussian(1), [0.5, 0.6], np.zeros((2, 1)), np.ones((2, 1, 1)))

    @pytest.mark.parametrize("weights", ([np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan]))
    def test_nan_weights_are_refused(self, weights):
        with pytest.raises(InvalidFamilyError):
            mx.MixtureModel(fam.gaussian(2), weights, np.zeros((2, 2)), np.stack([np.eye(2)] * 2))

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    @pytest.mark.parametrize("entry", ((0, 0), (1, 1)))
    def test_non_finite_locations_are_refused(self, entry, bad):
        mus = np.zeros((2, 2))
        mus[entry] = bad
        for sigmas in (np.stack([np.eye(2)] * 2), PdPoint(np.stack([np.eye(2)] * 2))):
            with pytest.raises(InvalidFamilyError, match="locations must be finite"):
                mx.MixtureModel(fam.gaussian(2), [0.5, 0.5], mus, sigmas)


class TestAdmittedScatters:
    """A PdPoint stack was admitted when it was built, so the model
    takes it without check_spd; raw arrays keep the full check."""

    def test_admitted_point_is_not_checked_again(self, monkeypatch):
        sigmas = np.stack([np.eye(2), 2.0 * np.eye(2)])
        point = PdPoint(sigmas)

        def refuse(sigma):
            raise AssertionError("an admitted point was checked again")

        monkeypatch.setattr(fam, "check_spd", refuse)
        model = mx.MixtureModel(fam.gaussian(2), [0.5, 0.5], np.zeros((2, 2)), point)
        assert model.sigmas is point.sigma

    def test_weights_and_shapes_are_still_checked(self):
        point = PdPoint(np.stack([np.eye(2), np.eye(2)]))
        with pytest.raises(InvalidFamilyError):
            mx.MixtureModel(fam.gaussian(2), [0.5, 0.6], np.zeros((2, 2)), point)
        with pytest.raises(InvalidFamilyError):
            mx.MixtureModel(fam.gaussian(2), [1.0], np.zeros((1, 2)), point)

    def test_raw_arrays_are_checked(self):
        singular = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(NotPositiveDefiniteError):
            mx.MixtureModel(fam.gaussian(2), [0.5, 0.5], np.zeros((2, 2)), singular)

    def test_a_hand_built_point_is_checked(self):
        # only the retraction builds a point without check_spd
        singular = np.stack([np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(NotPositiveDefiniteError):
            PdPoint(singular)
        with pytest.raises(NotPositiveDefiniteError):
            PdPoint(np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])]))
        lam, q = np.linalg.eigh(singular)
        with pytest.raises(TypeError):
            PdPoint(singular, lam, q)


def kernel_case(family, k, rng):
    """A k-component model of the family whose first scatter sits just above
    the PD floor and, for k > 1, whose last weight is zero; and 40 points
    near its locations, the first of them at the first location."""
    m = family.m
    mus = rng.normal(scale=2.0, size=(k, m))
    sigmas = np.empty((k, m, m))
    for i in range(k):
        q = mx.random_orthogonal(m, rng)
        lam = rng.uniform(0.5, 2.0, size=m)
        if i == 0 and m > 1:
            lam[0] = 2.0 * fam.PD_FLOOR * lam[1:].sum() / m
        sigma = (q * lam) @ q.T
        sigmas[i] = 0.5 * (sigma + sigma.T)
    weights = rng.dirichlet(np.ones(k))
    if k > 1:
        weights[-1] = 0.0
        weights /= weights.sum()
    model = mx.MixtureModel(family, weights, mus, sigmas)
    # Pearson II has support t <= 1: most points stay inside it
    spread = 0.3 if family.name == "pearson2" else 1.0
    x = mus[rng.integers(k, size=40)] + spread * rng.normal(size=(40, m))
    x[0] = mus[0]
    return model, x


class TestComponentLogpdf:
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    @pytest.mark.parametrize("name", sorted(DENSITY_FAMILIES))
    def test_matches_per_component_oracle(self, name, m, k):
        model, x = kernel_case(DENSITY_FAMILIES[name](m), k, np.random.default_rng([m, k]))
        # every row, one row, and one point given as an m-vector
        for points in (x, x[1:2], x[1]):
            got = model.component_logpdf(points)
            want = component_logpdf_oracle(model, points)
            assert got.shape == want.shape == (k, np.atleast_2d(points).shape[0])
            # -inf (a zero weight, points outside a bounded support) exactly;
            # finite values to 1e-12 of max(1, |value|), since a log density
            # near zero still carries the rounding of its O(1) terms
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["gaussian", "pearson2"])
    def test_several_blocks_match_per_component_oracle(self, name, monkeypatch):
        # 2 full blocks and a ragged one, and a single block of every row
        model, _ = kernel_case(DENSITY_FAMILIES[name](3), 4, np.random.default_rng(5))
        x = model.mus[np.arange(2137) % 4] + np.random.default_rng(6).normal(size=(2137, 3))
        want = component_logpdf_oracle(model, x)
        monkeypatch.setattr(mx, "BLOCK", 1000)
        assert [b.shape for b in mx.column_blocks(x)] == [(3, 1000), (3, 1000), (3, 137)]
        blocked = model.component_logpdf(x)
        np.testing.assert_allclose(blocked, want, rtol=1e-12, atol=1e-12)
        monkeypatch.setattr(mx, "BLOCK", 8192)
        np.testing.assert_allclose(blocked, model.component_logpdf(x), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name", ["gaussian", "kotz"])
    def test_block_copy_keeps_the_strided_bits(self, name, monkeypatch):
        # the rows are copied once per block before the k centrings; the
        # arithmetic is the strided read's, so every bit stays
        model, _ = kernel_case(DENSITY_FAMILIES[name](3), 4, np.random.default_rng(7))
        x = model.mus[np.arange(2137) % 4] + np.random.default_rng(8).normal(size=(2137, 3))
        x[0] = model.mus[0]
        monkeypatch.setattr(mx, "BLOCK", 1000)
        for points in (x, x[2000:], x[5]):
            got, want = model.component_logpdf(points), component_logpdf_strided(model, points)
            assert got.tobytes() == want.tobytes()
            assert model.logpdf(points).tobytes() == mx.normalize_columns(want).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    def test_gaussian_matches_scipy(self, m):
        rng = np.random.default_rng(m)
        model = random_gmm(m, 4, rng)
        x = model.mus[rng.integers(4, size=40)] + rng.normal(size=(40, m))
        want = np.stack([
            np.log(w) + stats.multivariate_normal.logpdf(x, mu, sigma)
            for w, mu, sigma in zip(model.weights, model.mus, model.sigmas)
        ])
        np.testing.assert_allclose(model.component_logpdf(x), want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.one_of(st.floats(-1e3, 1e3), st.just(-np.inf)),
        ),
        st.integers(0, 7),
    )
    def test_logsumexp_matches_scipy(self, a, dead):
        # logpdf's log-sum-exp over any component log densities, a column
        # without mass included, and without a floating-point warning
        a = a.copy()
        a[:, dead % a.shape[1]] = -np.inf  # one column without any mass
        model = small_model(m=1, k=a.shape[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mx.MixtureModel, "component_logpdf", lambda self, x: a.copy())
            got = model.logpdf(np.zeros((a.shape[1], 1)))
        np.testing.assert_allclose(got, logsumexp(a, axis=0), rtol=1e-14, atol=1e-14)

    def test_logpdf_of_columns_that_are_not_finite(self, monkeypatch):
        # as scipy's logsumexp: no mass gives -inf, +inf gives +inf, NaN NaN
        a = np.array([[-np.inf, np.inf, np.nan, 0.0], [-np.inf, 0.0, 0.0, 0.0]])
        monkeypatch.setattr(mx.MixtureModel, "component_logpdf", lambda self, x: a.copy())
        got = small_model(m=1, k=2).logpdf(np.zeros((4, 1)))
        assert got.tobytes() == np.array([-np.inf, np.inf, np.nan, np.log(2.0)]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8)),
            elements=st.one_of(st.floats(-1e3, 1e3), st.just(-np.inf)),
        ),
    )
    def test_normalize_columns_shares_the_logsumexp_exp(self, a):
        a = a.copy()
        a[0, np.all(np.isneginf(a), axis=0)] = 0.0  # every column keeps some mass
        resp = a.copy()
        total = mx.normalize_columns(resp)
        # the one exp is shared: the log-sum-exp is the two-pass one, and resp
        # is exactly the shifted exponentials over their column sums
        shifted = np.exp(a - a.max(axis=0))
        assert total.tobytes() == (np.log(shifted.sum(axis=0)) + a.max(axis=0)).tobytes()
        assert resp.tobytes() == (shifted / shifted.sum(axis=0)).tobytes()
        # against exp(a - total) the exponent's rounding shows: total is
        # rounded to half an ulp of |total| and a - total to half an ulp of
        # itself, and exp turns an absolute exponent error into a relative one;
        # with c = 4 for the exp, sum and division roundings on top
        dead = np.isneginf(a)
        total = np.broadcast_to(total, a.shape)[~dead]
        want = np.exp(a[~dead] - total)
        bound = 4 * np.finfo(float).eps * (1.0 + np.abs(total) + np.abs(a[~dead] - total))
        assert np.all(np.abs(resp[~dead] - want) <= bound * want + 1e-300)
        np.testing.assert_allclose(resp.sum(axis=0), 1.0, rtol=1e-14)


@pytest.mark.parametrize("kind", ["nan", "inf", "extra column"])
@pytest.mark.parametrize("reader", ["nll", "sliced_cost"])
def test_raw_samples_are_checked_at_the_boundary(reader, kind):
    data, model = golden_case()
    samples = data.samples.copy()
    error = InvalidFamilyError
    if kind == "nan":
        samples[7, 1] = np.nan
    elif kind == "inf":
        samples[0, 0] = np.inf
    else:
        samples, error = np.hstack([samples, samples[:, :1]]), MismatchError
    with pytest.raises(error):
        if reader == "nll":
            mx.nll(model, samples)
        else:
            tp.sliced_cost(model, samples, tp.random_projections(2, 4, np.random.default_rng(0)))


class TestNll:
    def test_gaussian_entropy(self):
        rng = np.random.default_rng(2)
        m = 3
        model = mx.MixtureModel(fam.gaussian(m), [1.0], [np.zeros(m)], [np.eye(m)])
        data = mx.sample_mixture(model, rng, 100_000)
        entropy = 0.5 * m * (1.0 + math.log(2.0 * math.pi))
        assert mx.nll(model, data) == pytest.approx(entropy, abs=0.02)

    def test_single_point_at_mode(self):
        model = small_model(m=2, k=2)
        x = model.mus[0]
        assert mx.nll(model, x.reshape(1, -1)) == pytest.approx(-math.log(mx.pdf(model, x)), rel=1e-12)

    def test_plain_summation_oracle(self):
        model = small_model(m=2, k=3, seed=3)
        rng = np.random.default_rng(4)
        data = rng.normal(scale=1.5, size=(40, 2))
        oracle = -sum(math.log(naive_pdf(model, x)) for x in data) / len(data)
        assert mx.nll(model, data) == pytest.approx(oracle, rel=1e-12)

    def test_nll_not_below_entropy(self):
        # On its own samples the model NLL estimates the differential
        # entropy; it must not systematically undershoot it.
        rng = np.random.default_rng(5)
        model = mx.MixtureModel(
            fam.gaussian(2), [0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]], [np.eye(2)] * 2
        )
        data = mx.sample_mixture(model, rng, 50_000)
        # entropy of well-separated balanced pair: component entropy + log 2
        entropy = 0.5 * 2 * (1.0 + math.log(2.0 * math.pi)) + math.log(2.0)
        assert mx.nll(model, data) >= entropy - 0.05


class TestValidatedComponents:
    """A model's components come from its validated arrays unchecked (a
    component built by hand keeps the check: TestComponentSampler)."""

    def test_generate_synthetic_checks_its_scatters_once(self, monkeypatch):
        calls = []
        real = fam.check_spd

        def counting(sigma):
            calls.append(np.shape(sigma))
            return real(sigma)

        monkeypatch.setattr(fam, "check_spd", counting)
        # the truth's stack, once; sampling reads each component unchecked
        mx.generate_synthetic(3, 4, 500, 4.0, 3.0, np.random.default_rng(15))
        assert calls == [(4, 3, 3)]

    def test_component_matches_a_checked_one(self):
        model = small_model(m=3, k=2, seed=16)
        for i in range(model.k):
            got, want = model.component(i), fam.EllipticalComponent(model.mus[i], model.sigmas[i], model.family)
            assert got.family == want.family
            assert got.mu.tobytes() == want.mu.tobytes()
            assert got.sigma.tobytes() == want.sigma.tobytes()
            assert got.chol.tobytes() == want.chol.tobytes()


class TestSampleMixture:
    def test_degenerate_weights(self):
        rng = np.random.default_rng(6)
        model = mx.MixtureModel(
            fam.gaussian(1), [1.0, 0.0], [[0.0], [50.0]], [np.eye(1), np.eye(1)]
        )
        data = mx.sample_mixture(model, rng, 5_000)
        assert np.all(np.abs(data.samples) < 10.0)

    def test_balanced_proportions(self):
        rng = np.random.default_rng(7)
        model = mx.MixtureModel(
            fam.gaussian(1), [0.5, 0.5], [[-20.0], [20.0]], [np.eye(1), np.eye(1)]
        )
        data = mx.sample_mixture(model, rng, 10_000)
        frac = np.mean(data.samples[:, 0] > 0.0)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_mean_moment_oracle(self):
        rng = np.random.default_rng(8)
        model = small_model(m=2, k=3, seed=9)
        data = mx.sample_mixture(model, rng, 200_000)
        expect = model.weights @ model.mus
        assert np.allclose(data.samples.mean(axis=0), expect, atol=0.03)

    def test_covariance_moment_oracle(self):
        # cov = sum_i pi_i (Sigma_i E[R^2]/m + mu_i mu_i^T) - mean mean^T
        rng = np.random.default_rng(9)
        model = small_model(m=2, k=2, family=fam.Logistic(m=2), seed=10)
        data = mx.sample_mixture(model, rng, 400_000)
        w = model.family.mean_r2() / model.m
        mean = model.weights @ model.mus
        expect = sum(
            model.weights[i] * (model.sigmas[i] * w + np.outer(model.mus[i], model.mus[i]))
            for i in range(model.k)
        ) - np.outer(mean, mean)
        assert np.allclose(np.cov(data.samples.T, bias=True), expect, atol=0.05)

    @pytest.mark.parametrize("n", (2.7, True, np.bool_(True)))
    def test_a_size_that_is_not_an_integer_is_refused_not_truncated(self, n):
        with pytest.raises(GenerationError, match="n must be an integer"):
            mx.sample_mixture(small_model(), np.random.default_rng(6), n)

    def test_a_negative_size_is_refused_with_the_library_error(self):
        with pytest.raises(GenerationError, match="n must be an integer of at least 0, got -1"):
            mx.sample_mixture(small_model(), np.random.default_rng(6), -1)

    def test_no_rows_is_refused_by_the_dataset(self):
        with pytest.raises(InvalidFamilyError, match="at least one sample row"):
            mx.sample_mixture(small_model(), np.random.default_rng(6), np.int64(0))


class TestGenerateSynthetic:
    def test_single_component(self):
        rng = np.random.default_rng(10)
        data = mx.generate_synthetic(2, 1, 500, 10.0, 10.0, rng)
        assert data.truth.k == 1
        assert data.samples.shape == (500, 2)

    def test_separation_inequality(self):
        rng = np.random.default_rng(11)
        data = mx.generate_synthetic(2, 3, 10_000, 10.0, 10.0, rng)
        truth = data.truth
        need = 10.0 * math.sqrt(max(np.trace(s) for s in truth.sigmas))
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(truth.mus[i] - truth.mus[j]) >= need - 1e-9

    def test_condition_number_bound(self):
        rng = np.random.default_rng(12)
        data = mx.generate_synthetic(3, 4, 100, 10.0, 5.0, rng)
        for s in data.truth.sigmas:
            lam = np.linalg.eigvalsh(s)
            assert lam[-1] / lam[0] <= 100.0 * (1.0 + 1e-9)

    def test_truth_beats_single_gaussian(self):
        # Oracle: moment-matched single Gaussian must have higher NLL than
        # the generating mixture on the mixture's own samples.
        rng = np.random.default_rng(13)
        data = mx.generate_synthetic(2, 3, 10_000, 10.0, 10.0, rng)
        single = mx.MixtureModel(
            fam.gaussian(2),
            [1.0],
            [data.samples.mean(axis=0)],
            [np.cov(data.samples.T, bias=True)],
        )
        assert mx.nll(data.truth, data) < mx.nll(single, data)

    def test_bad_arguments(self):
        rng = np.random.default_rng(14)
        with pytest.raises(GenerationError):
            mx.generate_synthetic(2, 0, 10, 10.0, 10.0, rng)
        with pytest.raises(GenerationError):
            mx.generate_synthetic(2, 2, 10, 0.5, 10.0, rng)

    @pytest.mark.parametrize(
        "eccentricity, separation",
        [(np.nan, 3.0), (np.inf, 3.0), (4.0, np.nan), (4.0, np.inf), (4.0, -np.inf), (-np.inf, 3.0)],
    )
    def test_non_finite_shape_arguments(self, eccentricity, separation):
        # unrefused, each would overflow, warn, or retry the mean placement
        # until it gives up
        with pytest.raises(GenerationError, match="(eccentricity|separation) must be a finite number"):
            mx.generate_synthetic(2, 3, 10, eccentricity, separation, np.random.default_rng(14))

    @pytest.mark.parametrize(
        "sizes",
        [
            (2, 3, 2.5),
            (2, 3, 10.0),
            (2, 3, True),
            (2, 3, np.bool_(True)),
            (2, 3, "10"),
            (2.0, 3, 10),
            (True, 3, 10),
            (2, 3.0, 10),
            (2, False, 10),
            (2, np.float64(3.0), 10),
        ],
    )
    def test_sizes_must_be_integers(self, sizes):
        with pytest.raises(GenerationError):
            mx.generate_synthetic(*sizes, 4.0, 3.0, np.random.default_rng(14))

    def test_numpy_integer_sizes_draw_what_python_ints_draw(self):
        want = mx.generate_synthetic(2, 3, 50, 4.0, 3.0, np.random.default_rng(14))
        got = mx.generate_synthetic(np.int64(2), np.int32(3), np.uint16(50), 4.0, 3.0, np.random.default_rng(14))
        assert got.samples.tobytes() == want.samples.tobytes()


class TestDataset:
    @pytest.fixture(scope="class")
    def data(self):
        return golden_case()[0]

    @pytest.mark.parametrize("name", ["samples", "truth", "seed"])
    def test_fields_cannot_be_assigned(self, data, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, None)

    def test_samples_are_a_read_only_view(self):
        raw = np.random.default_rng(0).normal(size=(20, 2))
        data = mx.Dataset(raw)
        assert np.shares_memory(data.samples, raw) and raw.flags.writeable
        with pytest.raises(ValueError):
            data.samples[0, 0] = 1.0

    @pytest.mark.parametrize("reader", ["Dataset", "nll", "fit", "initialize", "sliced_cost"])
    def test_no_columns_are_refused(self, reader):
        # refused where the samples enter, as gaussian(0) is, before any
        # reader takes their covariance or compares their width
        samples = np.empty((3, 0))
        model = small_model(m=1, k=2)
        calls = {
            "Dataset": lambda: mx.Dataset(samples),
            "nll": lambda: mx.nll(model, samples),
            "fit": lambda: optim.fit(model, samples, optim.OptimizerConfig(max_iters=2)),
            "initialize": lambda: optim.initialize(samples, 2, fam.gaussian(1), "kmeanspp-lite",
                                                   np.random.default_rng(0)),
            "sliced_cost": lambda: tp.sliced_cost(model, samples, tp.random_projections(1, 2, np.random.default_rng(0))),
        }
        with pytest.raises(InvalidFamilyError):
            calls[reader]()

    def test_generate_synthetic_keeps_the_seed(self):
        assert mx.generate_synthetic(2, 2, 10, 4.0, 3.0, np.random.default_rng(0), seed=9).seed == 9

    def test_covariance_is_the_sample_covariance_built_once(self, monkeypatch):
        data = mx.Dataset(golden_case()[0].samples, seed=7)
        calls = []
        original = mx.sample_covariance

        def counting(samples):
            calls.append(samples)
            return original(samples)

        monkeypatch.setattr(mx, "sample_covariance", counting)
        model0 = optim.initialize(data, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(1))
        for method in ("dadam", "em"):
            optim.fit(model0, data, optim.OptimizerConfig(method=method, max_iters=3, em_tol=0.0))
        tp.sliced_cost(model0, data, tp.random_projections(2, 3, np.random.default_rng(2)))
        assert len(calls) == 1 and calls[0] is data.samples
        assert data.covariance.tobytes() == original(data.samples).tobytes()
        assert not data.covariance.flags.writeable

    def test_covariance_keeps_every_bit_of_np_cov(self, data):
        assert data.covariance.tobytes() == np.cov(data.samples.T, bias=True).tobytes()

    @pytest.mark.parametrize("power", [-300, 300, 400])
    def test_rescaled_covariance_keeps_every_bit(self, data, power):
        # entries of 2^power take the power-of-two rescaling that keeps
        # np.cov from overflowing; it is exact, so the covariance is the
        # plain one times 2^(2 power), bit for bit
        got = mx.sample_covariance(np.ldexp(data.samples, power))
        assert got.tobytes() == np.ldexp(np.cov(data.samples.T, bias=True), 2 * power).tobytes()

    def test_readers_agree_bitwise_on_a_dataset_and_its_array(self, data):
        raw = np.array(data.samples)
        family = fam.gaussian(2)
        start = [
            optim.initialize(side, 3, family, "kmeanspp-lite", np.random.default_rng(3)) for side in (data, raw)
        ]
        assert mx.nll(start[0], data) == mx.nll(start[0], raw)
        p = tp.random_projections(2, 4, np.random.default_rng(4))
        assert tp.sliced_cost(start[0], data, p) == tp.sliced_cost(start[0], raw, p)
        models = [start[0], start[1]]
        for method in ("dadam", "em"):
            cfg = optim.OptimizerConfig(method=method, alpha=0.03, max_iters=10, em_tol=0.0, seed=5)
            reports = [optim.fit(start[0], side, cfg) for side in (data, raw)]
            assert reports[0].costs.tobytes() == reports[1].costs.tobytes()
            models += [report.final_model for report in reports]
        for a, b in zip(models[::2], models[1::2]):
            for x, y in ((a.weights, b.weights), (a.mus, b.mus), (a.sigmas, b.sigmas)):
                assert x.tobytes() == y.tobytes()


def covariance_case(n, m, layout, rng, power=0):
    """(n, m) samples of both signs over 17 decades, times 2^power, every
    third row -0.0 and, from m = 2, a first column all -0.0 (numpy's mean
    folds from +0.0, so that column's mean is +0.0), laid out C-ordered,
    F-ordered or as every second row of a C-ordered array."""
    a = rng.standard_normal((2 * n if layout == "strided" else n, m))
    a *= np.ldexp(10.0 ** rng.integers(-8, 9, size=a.shape), power)
    a[::3] = -0.0
    if m > 1:
        a[:, 0] = -0.0
    return {"C": a, "F": np.asfortranarray(a), "strided": a[::2]}[layout]


class TestSampleCovariance:
    """``sample_covariance`` against ``np.cov`` (``covariance_oracle``), whose
    mean over C-ordered rows up to ``NARROW_ROWS`` columns it takes as
    column folds."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100_003])
    def test_matches_np_cov_bitwise(self, n, layout):
        rng = np.random.default_rng([n, len(layout)])
        for m in range(1, 18):
            samples = covariance_case(n, m, layout, rng)
            assert samples.shape == (n, m)
            got = mx.sample_covariance(samples)
            assert got.shape == (m, m)
            assert got.tobytes() == covariance_oracle(samples).tobytes(), m

    @pytest.mark.parametrize("power", [-300, 300])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_scaled_rows_match_bitwise(self, layout, power):
        # entries near 2^power take the power-of-two scaling branch, which
        # runs the same fold
        rng = np.random.default_rng([abs(power), len(layout)])
        for m in range(1, 18):
            for n in (1, 2, 3, 7, 1001):
                samples = covariance_case(n, m, layout, rng, power)
                got = mx.sample_covariance(samples)
                assert got.tobytes() == covariance_oracle(samples).tobytes(), (n, m)

    def test_narrow_rows_take_the_fold(self, monkeypatch):
        # the fold, not np.cov, answers C-ordered rows up to NARROW_ROWS wide
        def refuse(*args, **kwargs):
            raise AssertionError("np.cov called")

        rng = np.random.default_rng(3)
        monkeypatch.setattr(mx.np, "cov", refuse)
        for m in range(2, mx.NARROW_ROWS + 1):
            mx.sample_covariance(rng.standard_normal((50, m)))

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(["C", "F", "strided"]),
        a=st.integers(1, 17).flatmap(
            lambda m: arrays(np.float64, st.tuples(st.sampled_from([1, 2, 3, 9, 20]), st.just(m)),
                             elements=st.floats(allow_nan=False, width=64))
        ),
    )
    def test_matches_np_cov_bitwise_on_any_finite_or_infinite_floats(self, layout, a):
        # without NaN inputs every NaN comes from inf - inf or 0 * inf on
        # both sides alike; NaN positions must agree, other entries bit for bit
        samples = {"C": a, "F": np.asfortranarray(a), "strided": np.repeat(a, 2, axis=0)[::2]}[layout]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = mx.sample_covariance(samples), covariance_oracle(samples)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def draw_rows_case(m, k, rng):
    """A k-component Gaussian mixture in m dimensions; from k = 2 one
    component, chosen at random, has weight zero."""
    pi = rng.dirichlet(np.ones(k))
    if k > 1:
        pi[rng.integers(k)] = 0.0
        pi /= pi.sum()
    mus = rng.normal(scale=3.0, size=(k, m))
    sigmas = np.stack([random_spd(m, rng) for _ in range(k)])
    return mx.MixtureModel(fam.gaussian(m), pi, mus, sigmas)


class TestDrawRows:
    """``_draw_rows`` against the 2-D fancy scatter of ``draw_rows_oracle``."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_the_fancy_scatter_bitwise(self, k):
        rng = np.random.default_rng([k, 5])
        for m in range(1, 18):
            model = draw_rows_case(m, k, rng)
            for n in (0, 1, 2, 3, 7, 1001):
                got = mx._draw_rows(model, np.random.default_rng([m, n]), n)
                assert got.shape == (n, m) and got.flags.c_contiguous
                assert got.tobytes() == draw_rows_oracle(model, np.random.default_rng([m, n]), n).tobytes(), (m, n)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 17])
    def test_matches_the_fancy_scatter_bitwise_at_scale(self, m):
        model = draw_rows_case(m, 3, np.random.default_rng(m))
        got = mx._draw_rows(model, np.random.default_rng([m, 1]), 100_003)
        assert got.tobytes() == draw_rows_oracle(model, np.random.default_rng([m, 1]), 100_003).tobytes()


class TestIO:
    def test_model_json_roundtrip(self, tmp_path):
        model = small_model(m=2, k=3, family=fam.PearsonVII(m=2, v=5.0, s=4.0), seed=15)
        path = tmp_path / "model.json"
        model.save(path)
        back = mx.MixtureModel.load(path)
        assert back.family == model.family
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.mus, model.mus)
        assert np.array_equal(back.sigmas, model.sigmas)

    @pytest.mark.parametrize("m", (2.7, 2.0, "2", True))
    def test_a_record_with_a_non_integer_m_is_refused_not_truncated(self, m):
        doc = small_model(m=2, k=3).to_dict()
        with pytest.raises(InvalidFamilyError, match="m must be an integer of at least 1"):
            mx.MixtureModel.from_dict({**doc, "m": m})

    def test_dataset_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        data = mx.Dataset(rng.normal(size=(50, 3)))
        path = tmp_path / "data.csv"
        mx.save_dataset_csv(path, data)
        back = mx.load_dataset_csv(path)
        assert np.array_equal(back.samples, data.samples)
        assert path.read_text().splitlines()[0].count(",") == 2
