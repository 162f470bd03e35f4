import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, special, stats

from _helpers import DENSITY_FAMILIES, golden_case, golden_fit, pchip_primitive_oracle, random_spd, sample_oracle
from emmfit import families as fam
from emmfit import mixture as mx
from emmfit.errors import (
    DensityUnavailableError,
    GenerationError,
    InvalidFamilyError,
    NotPositiveDefiniteError,
    SupportError,
    UnsupportedGradientError,
)


# log|x| nodes of the interpolated stable CDF, 0.01 <= |x| <= 100: below
# them scipy returns F(0) (its window is 0.005 * alpha^(1/alpha) wide), and
# above them, for alpha = 1.5, it changes method at |x| ~ 316 with a jump a
# spline would ring around
STABLE_LOG_NODES = np.linspace(math.log(0.01), math.log(100.0), 401)


def stable_cdf(alpha):
    """scipy's ``levy_stable.cdf(x, alpha, 0)`` at a fraction of its cost
    (about 0.3 ms a point): a cubic spline in log|x| through its values at
    STABLE_LOG_NODES, folded by F(-x) = 1 - F(x); the exact CDF for the
    few points outside their range.  It is checked against the exact CDF
    at 200 points halfway between the nodes, of both signs, where a spline
    errs most, so a KS statistic moves by at most the 1e-6 allowed there."""
    from scipy.interpolate import CubicSpline

    lo, hi = np.exp(STABLE_LOG_NODES[[0, -1]])
    spline = CubicSpline(STABLE_LOG_NODES, stats.levy_stable.cdf(np.exp(STABLE_LOG_NODES), alpha, 0.0))

    def cdf(x):
        x = np.asarray(x, dtype=float)
        mag = np.abs(x)
        inside = (mag >= lo) & (mag <= hi)
        upper = spline(np.log(mag[inside]))
        out = np.empty_like(x)
        out[inside] = np.where(x[inside] > 0.0, upper, 1.0 - upper)
        if not inside.all():
            out[~inside] = stats.levy_stable.cdf(x[~inside], alpha, 0.0)
        return out

    halfway = 0.5 * (STABLE_LOG_NODES[1:] + STABLE_LOG_NODES[:-1])
    check = np.exp(halfway[::2]) * np.resize([1.0, -1.0], 200)
    assert np.max(np.abs(cdf(check) - stats.levy_stable.cdf(check, alpha, 0.0))) < 1e-6
    return cdf


def quad_cdf_m1(family, xs, nodes=400_001, tail_scale=3.0):
    """Quadrature CDF of a 1-D standard member, evaluated at sorted xs.

    Uses the substitution y = tail_scale * tan(u) so heavy-tailed members
    (Cauchy, t) are resolved with uniform nodes in u.
    """
    if family.name == "pearson2":
        ys = np.linspace(-1.0, 1.0, nodes)
        jac = np.ones(nodes)
        du = np.diff(ys)
    else:
        u = np.linspace(-np.pi / 2 + 1e-7, np.pi / 2 - 1e-7, nodes)
        ys = tail_scale * np.tan(u)
        jac = tail_scale / np.cos(u) ** 2
        du = np.diff(u)
    pdf = np.exp(family.log_gen(ys * ys)) * jac
    pdf[~np.isfinite(pdf)] = 0.0
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * du)])
    mass = cdf[-1]
    cdf /= mass
    return np.interp(xs, ys, cdf), mass


def ks_vs_cdf(samples, cdf_at_sorted):
    n = len(samples)
    hi = np.abs(cdf_at_sorted - np.arange(1, n + 1) / n).max()
    lo = np.abs(cdf_at_sorted - np.arange(n) / n).max()
    return max(hi, lo)


class TestGeneratorValues:
    def test_gaussian_at_center(self):
        # Kotz(1, 1/2, 1) at m=2, t=0 is the standard bivariate normal peak.
        assert float(fam.gaussian(2).log_gen(0.0)) == pytest.approx(
            math.log(1.0 / (2.0 * math.pi)), abs=1e-14
        )

    def test_cauchy_at_center(self):
        assert float(fam.cauchy(1).log_gen(0.0)) == pytest.approx(
            math.log(1.0 / math.pi), abs=1e-14
        )

    def test_logistic_normalizer_vs_importance_mc(self):
        # Oracle: Monte Carlo of the normalized density under a Gaussian
        # proposal must integrate to one.
        rng = np.random.default_rng(11)
        for m in (1, 2, 3):
            family = fam.Logistic(m=m)
            x = rng.standard_normal((200_000, m)) * 1.5
            t = np.sum(x * x, axis=1)
            logq = np.sum(stats.norm.logpdf(x, scale=1.5), axis=1)
            est = np.exp(family.log_gen(t) - logq).mean()
            assert est == pytest.approx(1.0, rel=2e-2)

    def test_logistic_shape_matches_kernel(self):
        family = fam.Logistic(m=3)
        ts = np.array([0.0, 0.7, 2.5, 9.0])
        expect = -ts - 2.0 * np.logaddexp(0.0, -ts)
        diff = family.log_gen(ts) - expect
        assert np.allclose(diff, diff[0], atol=1e-12)

    def test_pearson2_support(self):
        family = fam.PearsonII(m=2, s=2.0)
        # beyond t = 1 the density is zero, not an error
        assert np.isneginf(family.log_gen(np.array([0.5, 1.2]))[1])
        with pytest.raises(SupportError):
            family.log_gen(np.array([-0.5]))

    def test_invalid_parameters(self):
        with pytest.raises(InvalidFamilyError):
            fam.Kotz(m=2, a=-1.0, b=0.5, s=1.0)  # needs a > 1 - m/2 = 0
        with pytest.raises(InvalidFamilyError):
            fam.PearsonVII(m=4, v=1.0, s=1.5)  # needs s > m/2
        with pytest.raises(InvalidFamilyError):
            fam.AlphaStable(m=1, alpha=2.5)
        with pytest.raises(InvalidFamilyError):
            fam.PearsonII(m=1, s=0.5)
        with pytest.raises(InvalidFamilyError):
            fam.Hyperbolic(m=1, v=2.0, a=0.0, lam=-1.0)

    def test_hyperbolic_needs_a_positive_v_and_a_nonnegative_a(self):
        for v, a in ((0.0, 1.0), (-1.0, 1.0), (2.0, -0.5)):
            with pytest.raises(InvalidFamilyError, match="Hyperbolic requires v > 0 and a >= 0"):
                fam.Hyperbolic(m=2, v=v, a=a, lam=1.0)

    def test_named_special_cases_take_no_parameters(self):
        with pytest.raises(InvalidFamilyError, match="gaussian takes no parameters"):
            fam.make_family("gaussian", 2, a=1.0)

    def test_params_are_the_fields_after_m_in_order(self):
        # what MixtureModel.to_dict writes, and make_family takes back
        want = {
            fam.Kotz(m=2, a=1.5, b=0.25, s=2.0): {"a": 1.5, "b": 0.25, "s": 2.0},
            fam.PearsonVII(m=2, v=3.0, s=2.5): {"v": 3.0, "s": 2.5},
            fam.Hyperbolic(m=2, v=2.0, a=1.0, lam=0.5): {"v": 2.0, "a": 1.0, "lam": 0.5},
            fam.Logistic(m=2): {},
            fam.AlphaStable(m=2, alpha=1.2): {"alpha": 1.2},
            fam.PearsonII(m=2, s=3.0): {"s": 3.0},
        }
        for family, params in want.items():
            assert list(family.params().items()) == list(params.items())
            assert fam.make_family(family.name, 2, **family.params()) == family

    def test_alpha_stable_density_unavailable(self):
        with pytest.raises(DensityUnavailableError):
            fam.AlphaStable(m=2, alpha=1.5).log_gen(1.0)

    @pytest.mark.parametrize("name", sorted(DENSITY_FAMILIES))
    def test_public_log_gen_checks_t_and_leaves_it_alone(self, name):
        # the public entry checks t once; the unchecked _log_gen, which may
        # overwrite its argument, only ever sees a copy
        family = DENSITY_FAMILIES[name](2)
        with pytest.raises(SupportError):
            family.log_gen(np.array([0.5, -1e-300]))
        t = np.array([0.0, 0.5, 2.0])
        values = family.log_gen(t)
        assert t.tolist() == [0.0, 0.5, 2.0]
        assert values.tobytes() == family._log_gen(t.copy()).tobytes()


class TestRSquaredSampler:
    def test_gaussian_chi2_mean(self):
        rng = np.random.default_rng(0)
        r2 = fam.gaussian(4).sample_r2(rng, 200_000)
        assert r2.mean() == pytest.approx(4.0, rel=0.02)

    def test_gaussian_r2_is_chi_squared(self):
        rng = np.random.default_rng(1)
        for m in (1, 3, 6):
            r2 = fam.gaussian(m).sample_r2(rng, 100_000)
            ks = stats.kstest(r2, stats.chi2(m).cdf).statistic
            assert ks < 0.01

    def test_pearson2_support_bounds(self):
        rng = np.random.default_rng(2)
        r2 = fam.PearsonII(m=2, s=2.0).sample_r2(rng, 50_000)
        assert np.all((r2 >= 0.0) & (r2 <= 1.0))

    def test_laplace_row_factorwise_mc(self):
        # Oracle: E[R^2] = E[G] * E[K] with the two factors sampled
        # independently (G chi^2_m, K the a->0 mixing law Gamma(lam, 2/v)).
        rng = np.random.default_rng(3)
        family = fam.Hyperbolic(m=2, v=2.0, a=0.0, lam=1.0)
        r2 = family.sample_r2(rng, 400_000)
        g = rng.chisquare(2, size=400_000)
        k = rng.gamma(1.0, scale=1.0, size=400_000)
        assert r2.mean() == pytest.approx(g.mean() * k.mean(), rel=0.02)

    def test_positive_stable_subgaussian_marginal(self):
        # X = sqrt(R^2) * sign at m=1 must be standard SaS(alpha).
        rng = np.random.default_rng(4)
        for alpha in (0.8, 1.5):
            family = fam.AlphaStable(m=1, alpha=alpha)
            r2 = family.sample_r2(rng, 50_000)
            sign = np.where(rng.random(50_000) < 0.5, -1.0, 1.0)
            x = np.sqrt(r2) * sign
            ks = stats.kstest(x, stable_cdf(alpha)).statistic
            assert ks < 0.012


# every family kind, each of which samples
SAMPLING_FAMILIES = {**DENSITY_FAMILIES, "alphastable": lambda m: fam.AlphaStable(m=m, alpha=1.5)}


class TestComponentSampler:
    def test_identity_covariance(self):
        rng = np.random.default_rng(5)
        comp = fam.EllipticalComponent(np.zeros(2), np.eye(2), fam.gaussian(2))
        x = fam.sample(comp, rng, 100_000)
        assert np.allclose(np.cov(x.T), np.eye(2), atol=0.02)

    def test_empty_draw(self):
        rng = np.random.default_rng(6)
        comp = fam.EllipticalComponent(np.zeros(3), np.eye(3), fam.laplace(3))
        assert fam.sample(comp, rng, 0).shape == (0, 3)

    @pytest.mark.parametrize("n", (3.9, 3.0, True, -1, "3"))
    def test_a_size_that_is_not_a_count_is_refused_not_truncated(self, n):
        comp = fam.EllipticalComponent(np.zeros(2), np.eye(2), fam.gaussian(2))
        with pytest.raises(GenerationError, match="n must be an integer of at least 0"):
            fam.sample(comp, np.random.default_rng(6), n)

    def test_location_shift(self):
        rng = np.random.default_rng(7)
        comp = fam.EllipticalComponent([3.0, -1.0], np.diag([4.0, 1.0]), fam.gaussian(2))
        x = fam.sample(comp, rng, 100_000)
        assert np.allclose(x.mean(axis=0), [3.0, -1.0], atol=0.03)

    def test_affine_equivariance_two_moments(self):
        rng = np.random.default_rng(8)
        a = np.array([[1.2, 0.0], [0.7, 0.5]])
        sigma = a @ a.T
        family = fam.Logistic(m=2)
        mu = np.array([1.0, -2.0])
        x = fam.sample(fam.EllipticalComponent(mu, sigma, family), rng, 200_000)
        z = fam.sample(fam.EllipticalComponent(np.zeros(2), np.eye(2), family), rng, 200_000)
        y = z @ a.T + mu
        assert np.allclose(x.mean(axis=0), y.mean(axis=0), atol=0.03)
        assert np.allclose(np.cov(x.T), np.cov(y.T), atol=0.05)

    @pytest.mark.parametrize("m", (1, 2, 3, 7, 8, 9, 16, 17))
    @pytest.mark.parametrize("name", sorted(SAMPLING_FAMILIES))
    def test_matches_the_norm_oracle_bitwise(self, name, m):
        rng = np.random.default_rng([m, 11])
        comp = fam.EllipticalComponent(rng.normal(size=m), random_spd(m, rng), SAMPLING_FAMILIES[name](m))
        for n in (1, 2, 1001):
            got = fam.sample(comp, np.random.default_rng([m, n]), n)
            assert got.tobytes() == sample_oracle(comp, np.random.default_rng([m, n]), n).tobytes()

    def test_component_shapes_must_match_the_family(self):
        with pytest.raises(InvalidFamilyError, match="component shapes"):
            fam.EllipticalComponent(np.zeros(3), np.eye(2), fam.gaussian(2))
        with pytest.raises(InvalidFamilyError, match="component shapes"):
            fam.EllipticalComponent(np.zeros(2), np.eye(3), fam.gaussian(2))

    @pytest.mark.parametrize("sigma", [np.ones(3), np.ones((2, 3)), np.ones((2, 2, 3)), np.ones((1, 1, 1, 1))])
    def test_check_spd_refuses_what_is_not_a_square_matrix_or_stack(self, sigma):
        with pytest.raises(NotPositiveDefiniteError, match="expected a square matrix or a stack"):
            fam.check_spd(sigma)

    def test_rejects_non_pd_scatter(self):
        # indefinite, singular and asymmetric
        for sigma in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.5], [0.0, 1.0]]):
            with pytest.raises(NotPositiveDefiniteError):
                fam.EllipticalComponent(np.zeros(2), np.array(sigma), fam.gaussian(2))


class TestExpectedRSquared:
    def test_gaussian_m3(self):
        assert fam.gaussian(3).mean_r2() == pytest.approx(3.0, abs=1e-12)

    def test_cauchy_undefined(self):
        assert fam.cauchy(2).mean_r2() is None
        assert fam.AlphaStable(m=2, alpha=1.5).mean_r2() is None

    def test_kotz_closed_form_vs_mc(self):
        # Gamma(k + 1/s) / (Gamma(k) b^(1/s)) with k = (2a+m-2)/(2s); for
        # a=2, s=1, b=1 at m=2 this is Gamma(3)/Gamma(2) = 2, and Monte
        # Carlo of the sampler is the arbiter.
        family = fam.Kotz(m=2, a=2.0, b=1.0, s=1.0)
        closed = family.mean_r2()
        assert closed == pytest.approx(2.0, abs=1e-12)
        rng = np.random.default_rng(9)
        assert family.sample_r2(rng, 400_000).mean() == pytest.approx(closed, rel=0.01)

    def test_logistic_m2_series_value(self):
        # Independent oracle: at m=2 the R^2 density is exactly the logistic
        # kernel, so E[R^2] = 2 * sum_n (-1)^(n+1)/n = 2 log 2.
        assert fam.Logistic(m=2).mean_r2() == pytest.approx(2.0 * math.log(2.0), rel=1e-5)

    def test_closed_forms_vs_mc(self):
        rng = np.random.default_rng(10)
        cases = [
            fam.PearsonVII(m=2, v=5.0, s=4.0),
            fam.Hyperbolic(m=2, v=2.0, a=1.0, lam=1.0),
            fam.Hyperbolic(m=3, v=2.0, a=0.0, lam=2.0),
            fam.PearsonII(m=2, s=2.0),
            fam.Logistic(m=3),
        ]
        for family in cases:
            mc = family.sample_r2(rng, 400_000).mean()
            assert family.mean_r2() == pytest.approx(mc, rel=0.01)


class TestSamplerDensityAgreement:
    CASES = [
        (lambda: fam.gaussian(1), 3.0),
        (lambda: fam.Kotz(m=1, a=2.0, b=1.0, s=1.5), 3.0),
        (lambda: fam.PearsonVII(m=1, v=5.0, s=3.0), 3.0),
        (lambda: fam.cauchy(1), 3.0),
        (lambda: fam.Hyperbolic(m=1, v=2.0, a=1.0, lam=1.0), 3.0),
        (lambda: fam.laplace(1), 3.0),
        (lambda: fam.Logistic(m=1), 3.0),
        (lambda: fam.PearsonII(m=1, s=2.0), 1.0),
    ]

    @pytest.mark.parametrize("make,scale", CASES)
    def test_m1_ks(self, make, scale):
        family = make()
        rng = np.random.default_rng(12)
        comp = fam.EllipticalComponent(np.zeros(1), np.eye(1), family)
        x = np.sort(fam.sample(comp, rng, 100_000)[:, 0])
        cdf, mass = quad_cdf_m1(family, x, tail_scale=scale)
        assert mass == pytest.approx(1.0, abs=1e-3)
        assert ks_vs_cdf(x, cdf) < 0.01

    def test_alpha_stable_m1_vs_scipy_cdf(self):
        # No normalized density in the library; scipy's stable CDF stands in.
        rng = np.random.default_rng(13)
        family = fam.AlphaStable(m=1, alpha=1.5)
        comp = fam.EllipticalComponent(np.zeros(1), np.eye(1), family)
        x = fam.sample(comp, rng, 50_000)[:, 0]
        ks = stats.kstest(x, stable_cdf(1.5)).statistic
        assert ks < 0.012


class TestNormalization:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_light_tail_mass(self, m):
        # surface-area-weighted radial quadrature of the full density
        area = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
        for family in (fam.gaussian(m), fam.Logistic(m=m), fam.Kotz(m=m, a=2.0, b=1.0, s=1.0)):
            r = np.linspace(0.0, 14.0, 200_001)
            pdf = np.exp(family.log_gen(r * r)) * r ** (m - 1)
            pdf[~np.isfinite(pdf)] = 0.0
            mass = area * np.trapezoid(pdf, r)
            assert mass == pytest.approx(1.0, abs=1e-3)


def test_numpy_scalars_are_stored_as_python_numbers():
    # a model's record is JSON, and a family's constants are those of the
    # Python-number family, bit for bit
    assert type(fam.gaussian(np.int64(2)).m) is int
    family = fam.PearsonVII(m=2, v=np.float32(3.0), s=np.float32(2.5))
    assert type(family.v) is float and type(family.s) is float
    assert family == fam.PearsonVII(m=2, v=3.0, s=2.5)
    assert family._log_const == fam.PearsonVII(m=2, v=3.0, s=2.5)._log_const
    for family in (fam.gaussian(np.int64(2)), fam.PearsonVII(m=np.int32(2), v=np.float32(3.0), s=np.float32(2.5))):
        model = mx.MixtureModel(family, [0.5, 0.5], np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        doc = json.loads(json.dumps(model.to_dict(), allow_nan=False))
        assert mx.MixtureModel.from_dict(doc).family == family


@pytest.mark.parametrize(
    "kwargs",
    (
        {"m": True}, {"m": 2.0}, {"m": "2"}, {"m": 2, "v": True}, {"m": 2, "s": "2.5"}, {"m": 2, "v": None},
        {"m": 2, "v": math.nan}, {"m": 2, "v": math.inf},
    ),
)
def test_a_family_refuses_bools_and_non_numbers(kwargs):
    with pytest.raises(InvalidFamilyError):
        fam.PearsonVII(**{"v": 3.0, "s": 2.5, **kwargs})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "family, kwargs",
    [
        (fam.Kotz, {"b": math.inf}),
        (fam.PearsonVII, {"v": math.inf, "s": 2.5}),
        (fam.Hyperbolic, {"a": 1.0, "lam": math.nan}),
        (fam.PearsonII, {"s": math.inf}),
    ],
)
def test_a_family_refuses_non_finite_parameters(family, kwargs):
    # each clears its family's range check; unrefused, it would carry a
    # normalising constant of +inf, -inf, NaN and NaN, PearsonII's with a
    # RuntimeWarning
    with pytest.raises(InvalidFamilyError, match="must be a finite number"):
        family(m=2, **kwargs)


def test_make_family_and_aliases():
    f = fam.make_family("kotz", 2, a=1.0, b=0.5, s=1.0)
    assert f == fam.gaussian(2)
    assert fam.make_family("laplace", 3) == fam.Hyperbolic(m=3, v=2.0, a=0.0, lam=1.0)
    with pytest.raises(InvalidFamilyError):
        fam.make_family("nosuch", 2)
    with pytest.raises(InvalidFamilyError):
        fam.make_family("kotz", 2, bogus=1.0)


def test_check_spd_validates_a_stack_in_one_call():
    good = np.stack([np.eye(2), np.diag([2.0, 0.5])])
    assert np.array_equal(fam.check_spd(good), good)
    with pytest.raises(NotPositiveDefiniteError):
        fam.check_spd(np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])]))
    with pytest.raises(NotPositiveDefiniteError):
        fam.check_spd(np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])]))


@functools.cache
def family_and_oracle(name, m):
    family = DENSITY_FAMILIES[name](m)
    return family, pchip_primitive_oracle(family)


def assert_same_bits(got, want):
    # NaN in, NaN out; every other value bit for bit, signed zeros included
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# families whose projected kernel is read from the PCHIP table
TABLED_FAMILIES = sorted(
    name for name, make in DENSITY_FAMILIES.items() if isinstance(make(1)._projected_kernel, fam._TableKernel)
)


class TestPrimitiveLookup:
    def test_only_the_gaussian_of_these_has_a_closed_form(self):
        assert TABLED_FAMILIES == sorted(set(DENSITY_FAMILIES) - {"gaussian"})

    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    @pytest.mark.parametrize("name", TABLED_FAMILIES)
    def test_matches_pchip_bitwise_at_every_node(self, name, m):
        family, (primitive, slope) = family_and_oracle(name, m)
        table = family._projected_kernel
        nodes, u_max = table.nodes, table.u_max
        near = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
        ends = [0.0, u_max, np.nextafter(u_max, np.inf), 2.0 * u_max, 1e300, np.inf, np.nan]
        u = np.concatenate([near, ends])
        u = np.concatenate([u, -u]).reshape(2, -1)
        assert_same_bits(family.gen_primitive(u), primitive(u))
        assert_same_bits(family.gen_primitive_slope(u), slope(u))

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["cauchy", "kotz", "pearson2"]),
        m=st.sampled_from([1, 8]),
        u=arrays(np.float64, st.integers(1, 64), elements=st.floats(width=64)),
    )
    def test_matches_pchip_bitwise_on_any_float(self, name, m, u):
        family, (primitive, slope) = family_and_oracle(name, m)
        assert_same_bits(family.gen_primitive(u), primitive(u))
        assert_same_bits(family.gen_primitive_slope(u), slope(u))

    def test_fit_never_evaluates_a_ppoly(self, monkeypatch):
        from scipy.interpolate import PPoly

        data, start = golden_case()
        family = DENSITY_FAMILIES["kotz"](2)
        model0 = mx.MixtureModel(family, start.weights, start.mus, start.sigmas)
        family.gen_primitive(np.zeros(1))  # builds the table

        def refuse(self, *args, **kwargs):
            raise AssertionError("a PPoly was evaluated")

        monkeypatch.setattr(PPoly, "__call__", refuse)
        report = golden_fit("dadam", data, model0)
        assert not report.failed
        assert report.iterations == 40

    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_kotz_without_a_1d_primitive_is_refused(self, a):
        # the projected kernel ~ |z|^(2a-2) is not integrable at 0 for a <= 1/2
        family = fam.Kotz(m=2, a=a)
        assert not family.has_gradient
        with pytest.raises(UnsupportedGradientError):
            family.gen_primitive(np.zeros(1))
        with pytest.raises(UnsupportedGradientError):
            family.gen_primitive_slope(np.zeros(1))

    def test_kotz_with_a_1d_primitive_is_kept(self):
        family = fam.Kotz(m=2, a=0.6)
        assert family.has_gradient
        assert np.isfinite(family.gen_primitive(np.inf))


def test_primitive_hooks_are_defined_on_the_base_class_alone():
    # The benchmark harness wraps gen_primitive and gen_primitive_slope on
    # EllipticalFamily and counts their points there; a family overriding
    # either would hide its calls.  The Gaussian takes its closed form
    # through the base methods and never builds a table.
    for cls in fam.FAMILY_KINDS.values():
        assert "gen_primitive" not in vars(cls), cls
        assert "gen_primitive_slope" not in vars(cls), cls
    data, model0 = golden_case()
    report = golden_fit("dadam", data, model0)
    assert report.iterations == 40
    assert report.final_model.family is model0.family
    assert isinstance(model0.family.__dict__["_projected_kernel"], fam._ErfKernel)


ERF_KERNELS = pytest.mark.parametrize("b", [0.5, 2.0], ids=["gaussian", "b2"])
ERF_DIMENSIONS = pytest.mark.parametrize("m", [1, 2, 8, 16])


def erf_family(m, b):
    """A Kotz member with a = 1 and s = 1, whose kernel is c exp(-b z^2)."""
    family = fam.Kotz(m=m, a=1.0, b=b, s=1.0)
    assert isinstance(family._projected_kernel, fam._ErfKernel)
    return family


class TestClosedFormKernel:
    """Kotz with a = 1 and s = 1 (the Gaussian at b = 1/2): the primitive
    c sqrt(pi) / (2 sqrt(b)) erf(sqrt(b) u) and its slope c exp(-b u^2)."""

    @ERF_DIMENSIONS
    @ERF_KERNELS
    def test_primitive_matches_quadrature(self, b, m):
        family = erf_family(m, b)
        u = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 1.7, 3.0, 5.5, 12.0, np.inf])
        kernel = lambda z: float(np.exp(family.log_gen(z * z)))  # noqa: E731
        want = [integrate.quad(kernel, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200)[0] for x in u]
        np.testing.assert_allclose(family.gen_primitive(u), want, rtol=1e-12, atol=0.0)
        assert isinstance(family.__dict__["_projected_kernel"], fam._ErfKernel)

    @ERF_DIMENSIONS
    @ERF_KERNELS
    def test_primitive_is_odd_with_its_limits(self, b, m):
        family = erf_family(m, b)
        rng = np.random.default_rng(m)
        u = np.concatenate(
            [[0.0, 5e-324, 1e-300, 1e-8, 1e154, 1e200, 1.7e308, np.inf], rng.standard_normal(500) * 4.0]
        )
        assert family.gen_primitive(-u).tobytes() == (-family.gen_primitive(u)).tobytes()
        top = math.exp(family._log_const) * math.sqrt(math.pi / b) / 2.0
        assert family.gen_primitive(np.inf) == pytest.approx(top, rel=1e-15, abs=0.0)
        assert family.gen_primitive(-np.inf) == -family.gen_primitive(np.inf)
        assert family.gen_primitive(1.7e308) == family.gen_primitive(np.inf)
        assert family.gen_primitive_slope(np.inf) == 0.0
        assert family.gen_primitive_slope(-np.inf) == 0.0
        assert np.isnan(family.gen_primitive(np.nan))
        assert np.isnan(family.gen_primitive_slope(np.nan))

    @ERF_DIMENSIONS
    @ERF_KERNELS
    def test_saturated_primitive_keeps_the_erf_bits(self, b, m):
        # erf is evaluated only where |sqrt(b) u| < 6; +-phi_max stands in
        # for it elsewhere, bit for bit
        family = erf_family(m, b)
        kernel = family._projected_kernel

        def want(u):
            return kernel.phi_max * special.erf(kernel.sqrt_b * u)

        rng = np.random.default_rng([m, int(4 * b)])
        for k, g in ((1, 7), (3, 1025), (8, 701), (8, 1025)):
            u = rng.standard_normal((k, g)) * rng.uniform(0.5, 20.0, (k, 1))
            assert_same_bits(family.gen_primitive(u), want(u))
        edge = fam.ERF_SATURATES / kernel.sqrt_b
        u = np.array([np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0, edge, -edge])
        u = np.concatenate([u, np.nextafter(u[-2:], 0.0), np.nextafter(u[-2:], np.inf)])
        assert_same_bits(family.gen_primitive(u), want(u))
        for x in (0.3, -2.0 * edge, 1e300, np.inf, -np.inf, np.nan):
            got = family.gen_primitive(x)
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
            assert_same_bits(np.array([got]), np.array([want(x)]))

    @ERF_DIMENSIONS
    @ERF_KERNELS
    def test_slope_is_the_kernel(self, b, m):
        family = erf_family(m, b)
        u = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(-30.0, 30.0, 601)])
        slope = family.gen_primitive_slope(u)
        np.testing.assert_array_max_ulp(slope, np.exp(family.log_gen(u * u)), maxulp=4)
        assert np.array_equal(slope, family.gen_primitive_slope(-u))

    @ERF_DIMENSIONS
    @ERF_KERNELS
    def test_extreme_arguments_raise_no_warning(self, b, m):
        family = erf_family(m, b)
        u = np.array([1.7e308, -1.7e308, 1e160, -1e160, np.inf, -np.inf, np.nan, 0.0, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            family.gen_primitive(u)
            family.gen_primitive_slope(u)


def row_sum_case(n, m, rng):
    """An (n, m) array of both signs over 17 decades, every third row -0.0
    (numpy's reduction starts from +0.0, so those rows sum to +0.0)."""
    a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, m))
    a[::3] = -0.0
    return a


class TestRowSums:
    """``row_sums`` against numpy's own reduction of the C-ordered rows."""

    def test_matches_numpy_bitwise_at_every_row_length(self):
        rng = np.random.default_rng(0)
        for m in [*range(1, 141), 200, 255, 256, 300, 520]:
            for n in (0, 1, 7, 33):
                a = row_sum_case(n, m, rng)
                want = np.add.reduce(a, axis=1)
                for x in (a, np.asfortranarray(a)):
                    assert fam.row_sums(x, np.empty(n)).tobytes() == want.tobytes(), (n, m)

    @pytest.mark.parametrize("m", (1, 2, 8, 17, 130))
    def test_matches_numpy_bitwise_across_blocks(self, m):
        # three full blocks of rows and a ragged one
        n = 3 * (fam.ROW_SUM_BLOCK // m) + 5
        a = row_sum_case(n, m, np.random.default_rng(m))
        out = np.empty(n)
        assert fam.row_sums(a, out) is out
        assert out.tobytes() == np.add.reduce(a, axis=1).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.one_of(st.integers(1, 140), st.integers(129, 300)).flatmap(
            lambda m: arrays(np.float64, st.tuples(st.sampled_from([0, 1, 3, 9]), st.just(m)),
                             elements=st.floats(allow_nan=False, width=64))
        )
    )
    def test_matches_numpy_bitwise_on_any_finite_or_infinite_floats(self, a):
        # without NaN inputs every NaN comes from inf - inf and has the same
        # bits; both sides overflow, and meet inf - inf, in the same rows
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(fam.row_sums(a, np.empty(len(a))), np.add.reduce(a, axis=1))


def min_sq_dist_reference(a, c, d2):
    """``min_sq_dist`` as numpy computes it on the C-ordered rows."""
    return np.minimum(d2, np.add.reduce(np.square(np.ascontiguousarray(a) - c), axis=1))


class TestMinSqDist:
    """``min_sq_dist`` against numpy's subtract, square, row sum and minimum."""

    def test_matches_numpy_bitwise_at_every_row_length(self):
        rng = np.random.default_rng(1)
        for m in [*range(1, 141), 200, 300]:
            for n in (0, 1, 7, 33):
                a = row_sum_case(n, m, rng)
                c = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, size=m)
                # entries every distance replaces (inf) or none does (both
                # zeros), and finite ones that distances meet on either side
                d2 = np.resize([np.inf, 0.0, -0.0, 1e16, 1e-16], n)
                want = min_sq_dist_reference(a, c, d2)
                for x in (a, np.asfortranarray(a)):
                    got = d2.copy()
                    assert fam.min_sq_dist(x, c, got) is got
                    assert got.tobytes() == want.tobytes(), (n, m)

    @pytest.mark.parametrize("m", (1, 2, 8, 17, 130))
    def test_matches_numpy_bitwise_across_blocks(self, m):
        # three full blocks of rows and a ragged one
        n = 3 * (fam.ROW_SUM_BLOCK // m) + 5
        rng = np.random.default_rng(m)
        a = row_sum_case(n, m, rng)
        d2 = np.where(rng.random(n) < 0.5, np.inf, 1e10)
        want = min_sq_dist_reference(a, a[n // 2], d2)
        for x in (a, np.asfortranarray(a)):
            got = d2.copy()
            assert fam.min_sq_dist(x, x[n // 2], got).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.one_of(st.integers(1, 140), st.integers(129, 300)).flatmap(
            lambda m: st.sampled_from([0, 1, 3, 9]).flatmap(
                lambda n: st.tuples(
                    arrays(np.float64, (n, m), elements=st.floats(allow_nan=False, allow_infinity=False)),
                    arrays(np.float64, m, elements=st.floats(allow_nan=False, allow_infinity=False)),
                    arrays(np.float64, n, elements=st.floats(allow_nan=False)),
                    st.booleans(),
                )
            )
        )
    )
    def test_matches_numpy_bitwise_on_any_finite_floats(self, case):
        a, c, d2, fortran = case
        # finite entries give no NaN: differences and squares that leave
        # the float range are inf on both sides
        with np.errstate(over="ignore"):
            want = min_sq_dist_reference(a, c, d2)
            got = fam.min_sq_dist(np.asfortranarray(a) if fortran else a, c, d2.copy())
        assert got.tobytes() == want.tobytes()
