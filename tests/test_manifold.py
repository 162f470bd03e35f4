import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emmfit import manifold as mf
from emmfit.errors import MismatchError, NotPositiveDefiniteError, StepTooLargeError
from emmfit.families import PD_FLOOR


def random_spd(m, rng, scale=1.0):
    a = rng.normal(size=(m, m))
    return scale * (a @ a.T + m * np.eye(m))


def random_sym(m, rng):
    a = rng.normal(size=(m, m))
    return 0.5 * (a + a.T)


class TestLyapunov:
    def test_identity_base(self):
        c = np.array([[2.0, 1.0], [1.0, 4.0]])
        assert np.allclose(mf.lyapunov_solve(np.eye(2), c), c / 2.0, atol=1e-14)

    def test_diagonal_base(self):
        a = np.diag([1.0, 3.0])
        c = np.array([[2.0, 4.0], [4.0, 6.0]])
        assert np.allclose(mf.lyapunov_solve(a, c), np.ones((2, 2)), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_spd(5, rng)
            c = random_sym(5, rng)
            b = mf.lyapunov_solve(a, c)
            res = np.linalg.norm(a @ b + b @ a - c) / np.linalg.norm(c)
            assert res <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = mf.PdPoint(random_spd(4, rng))
        c1, c2 = random_sym(4, rng), random_sym(4, rng)
        lhs = mf.lyapunov_solve(a, c1 + c2)
        rhs = mf.lyapunov_solve(a, c1) + mf.lyapunov_solve(a, c2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefiniteError):
            mf.lyapunov_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


def unit_vector(m, rng):
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


class TestRiemGradSigma:
    # The scatter gradient is rank one, egrad = w p p', for a unit p.
    def test_identity_sigma(self):
        rng = np.random.default_rng(2)
        p = unit_vector(3, rng)
        assert np.allclose(mf.riem_grad_sigma(np.eye(3), -0.7, p), -1.4 * np.outer(p, p), atol=1e-14)

    def test_scalar_case(self):
        out = mf.riem_grad_sigma(np.array([[2.0]]), 0.5, np.array([1.0]))
        assert out[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_metric_duality_with_half_constant(self):
        # <riem_grad, V>_W = tr(egrad V) / 2 under the Lyapunov metric
        # tr(L[U] Sigma L[V]); the printed tangent rule is the metric dual
        # up to this constant factor, which is folded into the stepsize.
        rng = np.random.default_rng(3)
        point = mf.PdPoint(random_spd(3, rng))
        p, w = unit_vector(3, rng), 1.3
        egrad = w * np.outer(p, p)
        grad = mf.riem_grad_sigma(point, w, p)
        for _ in range(20):
            v = random_sym(3, rng)
            inner = np.trace(
                mf.lyapunov_solve(point, grad) @ point.sigma @ mf.lyapunov_solve(point, v)
            )
            assert inner == pytest.approx(0.5 * np.trace(egrad @ v), rel=1e-10)

    @pytest.mark.parametrize("m", (1, 2, 5, 16))
    def test_stack_matches_the_dense_product(self, m):
        rng = np.random.default_rng(40 + m)
        sigmas = np.stack([random_spd(m, rng) for _ in range(4)])
        w, p = rng.normal(size=4), unit_vector(m, rng)
        got = mf.riem_grad_sigma(mf.PdPoint(sigmas), w, p)
        egrad = w[:, None, None] * np.outer(p, p)
        want = egrad @ sigmas + sigmas @ egrad
        assert got.tobytes() == np.swapaxes(got, 1, 2).tobytes()
        for i in range(4):
            scale = np.abs(want[i]).max()
            np.testing.assert_allclose(got[i], want[i], rtol=0.0, atol=1.5e-15 * scale)
            assert mf.riem_grad_sigma(sigmas[i], w[i], p).tobytes() == got[i].tobytes()


class TestExpSigma:
    def test_zero_step(self):
        rng = np.random.default_rng(4)
        sig = random_spd(3, rng)
        out, halvings = mf.exp_sigma(sig, np.zeros((3, 3)))
        assert np.allclose(out.sigma, sig, atol=1e-14)
        assert halvings == 0

    def test_scalar_case(self):
        # the Lyapunov image -0.1 of the step -0.2 at 1
        out, halvings = mf.exp_sigma(np.array([[1.0]]), np.array([[-0.1]]))
        assert out.sigma[0, 0] == pytest.approx(0.81, abs=1e-14)
        assert halvings == 0

    def test_first_order_consistency(self):
        # ||exp(Sigma, eps L) - (Sigma + eps (L Sigma + Sigma L))||_F must
        # shrink like eps^2: the log2 ratio under eps-halving has slope >= 1.9.
        rng = np.random.default_rng(5)
        sig = mf.PdPoint(random_spd(2, rng))
        lyap = random_sym(2, rng)
        v = lyap @ sig.sigma + sig.sigma @ lyap
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            out = mf.exp_sigma(sig, eps * lyap)[0].sigma
            errs.append(np.linalg.norm(out - (sig.sigma + eps * v)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes >= 1.9)

    def test_stays_pd(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            sig = mf.PdPoint(random_spd(2, rng))
            step = 0.3 * random_sym(2, rng)
            out, _ = mf.exp_sigma(sig, step)
            assert np.linalg.eigvalsh(out.sigma)[0] > 0.0

    def test_large_step_is_capped(self):
        # L = -I maps the image exactly onto the cone boundary and L = -5I
        # would wrap around on the non-geodesic branch; both are cut back
        # to L = -TRUST_CAP * I, so the image is (1 - 0.3)^2 I.
        for scale in (1.0, 5.0):
            out, halvings = mf.exp_sigma(np.eye(2), -scale * np.eye(2))
            assert np.allclose(out.sigma, 0.49 * np.eye(2), rtol=0.0, atol=1e-15)
            assert halvings == 0

    def test_contracting_step_is_capped(self):
        # L = diag(-5, 0.1): the cap reads the largest |eigenvalue|, 5, not
        # the largest eigenvalue, so L is scaled by 0.3/5 to diag(-0.3, 0.006).
        out, halvings = mf.exp_sigma(np.eye(2), np.diag([-5.0, 0.1]))
        assert np.allclose(out.sigma, np.diag([0.49, 1.006**2]), rtol=0.0, atol=1e-15)
        assert halvings == 0

    def test_exhausted_matrix_stays_while_its_neighbour_moves(self):
        # r sits 1e-9 relative above the PD floor of diag(1, r), and every
        # halving of the step toward zero still lands below it.
        r = 0.5 * PD_FLOOR * (1.0 + 1e-9)
        sigma0 = np.diag([1.0, r])
        assert r > PD_FLOOR * np.trace(sigma0) / 2
        stack = np.stack([sigma0, np.eye(2)])
        images = np.stack([np.diag([0.0, -0.5]), -0.05 * np.eye(2)])
        out, halvings = mf.exp_sigma(stack, images)
        assert halvings.tolist() == [mf.PD_RETRIES + 1, 0]
        assert out.sigma[0].tobytes() == sigma0.tobytes()
        assert np.allclose(out.sigma[1], 0.95**2 * np.eye(2), rtol=0.0, atol=1e-15)

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(11)
        for m in (2, 5, 16):
            sigmas = np.stack([random_spd(m, rng) for _ in range(4)])
            images = np.stack([0.005 * random_sym(m, rng) for _ in range(4)])
            out, halvings = mf.exp_sigma(sigmas, images)
            assert halvings.tolist() == [0] * 4
            for i in range(4):
                one, h = mf.exp_sigma(sigmas[i], images[i])
                assert h == 0
                for a, b in ((out.sigma[i], one.sigma), (out.lam[i], one.lam)):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("h", (1, 4, mf.PD_RETRIES))
    def test_only_the_matrix_below_the_floor_is_halved(self, h):
        # sigma0 = diag(1, r) with r (1 + delta) / 2 PD_FLOOR, and the
        # Lyapunov image diag(0, -t): the image r (1 - t / 2^j)^2 clears the
        # floor at roughly t / 2^j < delta / 2, which delta = 3 t / 2^h puts
        # first at j = h.  Its neighbours clear it on the first try.
        t = 0.29
        r = 0.5 * PD_FLOOR * (1.0 + 3.0 * t / 2.0**h)
        sigma0 = np.diag([1.0, r])
        stack = np.stack([np.eye(2), sigma0, 2.0 * np.eye(2)])
        images = np.stack([-0.05 * np.eye(2), np.diag([0.0, -t]), 0.0125 * np.eye(2)])
        out, halvings = mf.exp_sigma(stack, images)
        assert halvings.tolist() == [0, h, 0]
        for i in range(3):
            one, h_one = mf.exp_sigma(stack[i], images[i])
            assert h_one == halvings[i]
            for a, b in ((out.sigma[i], one.sigma), (out.lam[i], one.lam)):
                assert a.tobytes() == b.tobytes()

    def test_point_keeps_the_eigvalsh_that_admitted_it(self):
        # lam is the admission's eigvalsh
        rng = np.random.default_rng(12)
        out, _ = mf.exp_sigma(random_spd(3, rng), 0.01 * random_sym(3, rng))
        assert out.lam.tobytes() == np.linalg.eigvalsh(out.sigma).tobytes()

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_image_is_refused(self, bad, monkeypatch):
        # halving never makes a non-finite image finite: one matrix, or a
        # stack holding one such image, is refused before any retraction
        retractions = []
        real_retract = mf._retract
        monkeypatch.setattr(mf, "_retract", lambda *a: retractions.append(a) or real_retract(*a))
        with pytest.raises(StepTooLargeError, match="not finite"):
            mf.exp_sigma(np.eye(2), np.full((2, 2), bad))
        images = np.stack([-0.05 * np.eye(2), np.diag([bad, 0.0])])
        with pytest.raises(StepTooLargeError, match="not finite"):
            mf.exp_sigma(np.stack([np.eye(2), np.eye(2)]), images)
        assert retractions == []

    @pytest.mark.parametrize(
        "point_shape, image_shape",
        [((3, 2, 2), (2, 2)), ((3, 2, 2), (1, 2, 2)), ((3, 2, 2), (2, 2, 2)), ((3, 2, 2), (4, 2, 2)),
         ((3, 2, 2), (3, 3, 3)), ((3, 2, 2), (12,)), ((2, 2), (1, 2, 2))],
    )
    def test_an_image_of_another_shape_is_refused(self, point_shape, image_shape):
        # one (m, m) image would step all three scatters of a stack alike
        point = np.broadcast_to(np.eye(2), point_shape).copy()
        with pytest.raises(MismatchError, match="shape"):
            mf.exp_sigma(point, np.zeros(image_shape))

    @pytest.mark.filterwarnings("error")
    def test_finite_image_whose_norm_overflows_is_capped(self):
        # the squared Frobenius norm of diag(1e200, -1e200, 0) overflows, but
        # its entries are finite: it is capped to diag(0.3, -0.3, 0), not
        # kept as a non-finite image would be
        out, halvings = mf.exp_sigma(np.eye(3), np.diag([1e200, -1e200, 0.0]))
        assert halvings == 0
        np.testing.assert_allclose(np.diag(out.sigma), [1.69, 0.49, 1.0], rtol=0.0, atol=1e-15)
        stack, halvings = mf.exp_sigma(np.stack([np.eye(3)] * 2), np.stack([np.diag([1e200, -1e200, 0.0])] * 2))
        assert halvings.tolist() == [0, 0]
        assert stack.sigma[0].tobytes() == stack.sigma[1].tobytes() == out.sigma.tobytes()

    @staticmethod
    def image_cases():
        """(sigmas, images) for each branch of the retraction: small steps,
        steps at the cap, a step below the floor that a halving lifts and
        one that no halving lifts, and one matrix."""
        rng = np.random.default_rng(13)
        spd = np.stack([random_spd(3, rng) for _ in range(3)])
        small = np.stack([0.01 * random_sym(3, rng) for _ in range(3)])
        r = 0.5 * PD_FLOOR * (1.0 + 3.0 * 0.29 / 2.0)
        near_floor = np.stack([np.eye(2), np.diag([1.0, r]), np.diag([1.0, 0.5 * PD_FLOOR * (1.0 + 1e-9)])])
        return {
            "small": (spd, small),
            "at the cap": (spd, 5.0 * small / np.abs(small).max()),
            "halved": (near_floor, np.stack([-0.05 * np.eye(2), np.diag([0.0, -0.29]), np.diag([0.0, -0.5])])),
            "one matrix": (spd[0], 5.0 * small[0]),
        }

    @pytest.mark.parametrize("name", ("small", "at the cap", "halved", "one matrix"))
    def test_the_callers_images_are_never_written(self, name):
        sigmas, images = self.image_cases()[name]
        before = images.tobytes()
        images.flags.writeable = False
        out, halvings = mf.exp_sigma(sigmas, images)
        assert images.tobytes() == before
        # the same result from a writable copy
        again, again_halvings = mf.exp_sigma(sigmas, images.copy())
        assert out.sigma.tobytes() == again.sigma.tobytes()
        assert np.array_equal(halvings, again_halvings)

    @pytest.mark.parametrize("name", ("small", "at the cap", "halved", "one matrix"))
    def test_point_keeps_the_traces_of_the_stack_it_ends_with(self, name):
        # the health record reads these traces; they are the stack's own,
        # also for the matrices that kept their input or were halved
        sigmas, images = self.image_cases()[name]
        out, _ = mf.exp_sigma(sigmas, images)
        assert "trace" in vars(out)
        want = np.trace(out.sigma.reshape(-1, *out.sigma.shape[-2:]), axis1=1, axis2=2)
        assert out.trace.tobytes() == want.reshape(out.sigma.shape[:-2]).tobytes()

    def test_point_takes_its_traces_on_first_use(self):
        rng = np.random.default_rng(14)
        sigmas = np.stack([random_spd(4, rng) for _ in range(3)])
        point = mf.PdPoint(sigmas)
        assert "trace" not in vars(point)
        assert point.trace.tobytes() == np.trace(sigmas, axis1=1, axis2=2).tobytes()


# Frobenius norms of Lyapunov images: far below, just below the pre-test
# margin, within it, at the cap, and above it
CAP_NORMS = (
    0.1,
    mf.CAP_PRETEST * (1.0 - 1e-9),
    mf.TRUST_CAP * (1.0 - 1e-9),
    mf.TRUST_CAP,
    mf.TRUST_CAP * (1.0 + 1e-12),
    0.5,
    3.0,
)


def scaled_images(m, rng):
    """A (2 * len(CAP_NORMS), m, m) stack of symmetric images, one rank-one
    (|lambda| = Frobenius norm, the tightest case) and one full-rank at each
    of CAP_NORMS."""
    images = []
    for norm in CAP_NORMS:
        v = rng.normal(size=m)
        for image in (np.outer(v, v), random_sym(m, rng)):
            images.append(image * (norm / np.linalg.norm(image)))
    return np.stack(images)


class TestTrustCapPretest:
    @pytest.mark.parametrize("m", (2, 5, 16))
    def test_keeps_images_below_the_pretest_and_caps_the_rest(self, m):
        images = scaled_images(m, np.random.default_rng(m))
        got = images.copy()
        mf._trust_cap(got)
        # images below the pre-test keep every bit, and no |eigenvalue| ends
        # above the cap
        below = np.linalg.norm(images, axis=(1, 2)) <= mf.CAP_PRETEST
        assert got[below].tobytes() == images[below].tobytes()
        assert np.all(np.abs(np.linalg.eigvalsh(got)) <= mf.TRUST_CAP * (1.0 + 1e-12))

    @pytest.mark.parametrize("m", (2, 5, 16))
    def test_exp_sigma_matches_the_always_eigvalsh_rule_bitwise(self, m, monkeypatch):
        rng = np.random.default_rng(100 + m)
        images = scaled_images(m, rng)
        sigmas = np.stack([random_spd(m, rng) for _ in images])
        # the whole stack reaches the cap; the images below the pre-test
        # alone skip it
        below = np.linalg.norm(images, axis=(1, 2)) <= mf.CAP_PRETEST
        cases = ((sigmas, images), (sigmas[below], images[below]))
        new = [mf.exp_sigma(*case) for case in cases]
        # a pre-test no norm passes: every step caps every image
        monkeypatch.setattr(mf, "CAP_PRETEST", 0.0)
        for (point, halvings), case in zip(new, cases):
            old, old_halvings = mf.exp_sigma(*case)
            assert halvings.tobytes() == old_halvings.tobytes()
            for a, b in ((point.sigma, old.sigma), (point.lam, old.lam)):
                assert a.tobytes() == b.tobytes()

    def test_small_steps_read_no_eigenvalues(self, monkeypatch):
        # below the trust cap the only eigenvalues read are the admission's:
        # one eigvalsh of the retracted stack, and no eigh
        rng = np.random.default_rng(7)
        point = mf.PdPoint(np.stack([random_spd(4, rng) for _ in range(3)]))
        images = 0.01 * np.stack([random_sym(4, rng) for _ in range(3)])
        read = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: read.append(a.copy()) or real_eigvalsh(a))

        def refuse(*args, **kwargs):
            raise AssertionError("eigh read in the retraction")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        out, _ = mf.exp_sigma(point, images)
        assert len(read) == 1 and read[0].tobytes() == out.sigma.tobytes()


class TestSphereFromWeights:
    @pytest.mark.parametrize("weights", ([0.0, 0.0], [-1.0, 0.0], [1.0, np.nan], [np.inf, 1.0]))
    def test_weights_with_no_positive_finite_mass_are_refused(self, weights):
        with pytest.raises(ValueError, match="positive finite mass"):
            mf.sphere_from_weights(weights)

    def test_is_the_unit_vector_of_the_normalised_square_roots(self):
        s = mf.sphere_from_weights([0.2, 0.3, 0.5, -0.1])
        assert type(s) is np.ndarray and abs(np.linalg.norm(s) - 1.0) <= 1e-15
        assert np.allclose(s * s, [0.2, 0.3, 0.5, 0.0], rtol=1e-15, atol=0.0)


class TestExpSphere:
    @pytest.mark.parametrize("s", ([np.nan, np.nan], [1.0, np.nan], [2.0, 0.0]))
    def test_a_point_off_the_sphere_is_refused(self, s):
        for tangent in (np.zeros(2), np.array([0.0, 0.1])):
            with pytest.raises(ValueError, match="unit norm"):
                mf.exp_sphere(np.array(s), tangent)

    def test_zero_tangent(self):
        s = np.array([1.0, 0.0])
        out = mf.exp_sphere(s, np.zeros(2))
        assert np.array_equal(out, s) and out is not s

    def test_great_circle_step(self):
        out = mf.exp_sphere(np.array([1.0, 0.0]), np.array([0.0, -0.1]))
        assert np.allclose(out, [np.cos(0.1), np.sin(0.1)], atol=1e-14)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            raw = rng.normal(size=4)
            s = raw / np.linalg.norm(raw)
            t = rng.normal(size=4)
            t = mf.project_sphere_grad(s, t)
            t *= rng.uniform(0.0, np.pi) / max(np.linalg.norm(t), 1e-12)
            out = mf.exp_sphere(s, t)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestNorm:
    @pytest.mark.parametrize("shape", ((1,), (8,), (33,), (4, 4)))
    def test_is_numpys_norm_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        for _ in range(50):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150)
            for view in (x, x[::-1], x.T):
                assert mf._norm(view) == float(np.linalg.norm(view))

    def test_sphere_steps_are_unit(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            raw = rng.uniform(0.0, 1.0, 6)
            s = raw / np.linalg.norm(raw)
            out = mf.exp_sphere(s, 0.1 * mf.project_sphere_grad(s, rng.normal(size=6)))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestProjectSphereGrad:
    def test_parallel_gradient_vanishes(self):
        s = mf.sphere_from_weights([0.2, 0.3, 0.5])
        assert np.allclose(mf.project_sphere_grad(s, 3.0 * s), 0.0, atol=1e-14)

    def test_orthogonal_gradient_unchanged(self):
        g = np.array([0.0, 2.5])
        assert np.allclose(mf.project_sphere_grad(np.array([1.0, 0.0]), g), g, atol=1e-14)

    def test_output_orthogonal(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            raw = rng.normal(size=5)
            s = raw / np.linalg.norm(raw)
            out = mf.project_sphere_grad(s, rng.normal(size=5))
            assert abs(s @ out) <= 1e-12


class TestTransportSigma:
    def test_identity_at_same_point(self):
        rng = np.random.default_rng(9)
        sig = mf.PdPoint(random_spd(3, rng))
        u = random_sym(3, rng)
        assert np.allclose(mf.transport_sigma(sig, sig, u), u, atol=1e-10)

    def test_scalar_reduction(self):
        out = mf.transport_sigma(np.array([[2.0]]), np.array([[3.0]]), np.array([[0.8]]))
        assert out[0, 0] == pytest.approx(0.8 * 3.0 / 2.0, abs=1e-14)

    def test_output_symmetric(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            out = mf.transport_sigma(
                random_spd(4, rng), random_spd(4, rng), random_sym(4, rng)
            )
            assert np.allclose(out, out.T, atol=1e-10)



def conditioned_spd(m, rng, log10_cond):
    """A random SPD matrix with eigenvalues spread log-uniformly over
    [1, 10^log10_cond], in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = 10.0 ** rng.uniform(0.0, log10_cond, size=m)
    return (q * lam) @ q.T, 10.0**log10_cond


class TestLyapunovCoordinates:
    """The two identities that let the optimiser keep its scatter momentum
    as a Lyapunov image: vector transport leaves the image unchanged, and
    the image of the Riemannian gradient is the Euclidean w p p'."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), log10_cond=st.floats(0.0, 6.0))
    def test_transport_keeps_the_image(self, m, seed, log10_cond):
        rng = np.random.default_rng(seed)
        (frm, _), (to, cond) = conditioned_spd(m, rng, 1.0), conditioned_spd(m, rng, log10_cond)
        u = random_sym(m, rng)
        image = mf.lyapunov_solve(frm, u)
        back = mf.lyapunov_solve(to, mf.transport_sigma(frm, to, u))
        scale = np.linalg.norm(image)
        assert np.linalg.norm(back - image) <= 1e-13 * m * cond * scale

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        log10_cond=st.floats(0.0, 6.0),
        w=st.floats(-1e3, 1e3).filter(lambda w: w != 0.0),
    )
    def test_gradient_image_is_the_euclidean_gradient(self, m, seed, log10_cond, w):
        rng = np.random.default_rng(seed)
        sigma, cond = conditioned_spd(m, rng, log10_cond)
        p = unit_vector(m, rng)
        image = mf.lyapunov_solve(sigma, mf.riem_grad_sigma(sigma, w, p))
        assert np.linalg.norm(image - w * np.outer(p, p)) <= 1e-13 * m * cond * abs(w)
