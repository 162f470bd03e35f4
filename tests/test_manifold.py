import numpy as np
import pytest

from emmfit import manifold as mf
from emmfit.errors import NotPositiveDefiniteError
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


class TestRiemGradSigma:
    def test_identity_sigma(self):
        rng = np.random.default_rng(2)
        e = random_sym(3, rng)
        assert np.allclose(mf.riem_grad_sigma(np.eye(3), e), 2.0 * e, atol=1e-14)

    def test_scalar_case(self):
        out = mf.riem_grad_sigma(np.array([[2.0]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_metric_duality_with_half_constant(self):
        # <riem_grad, V>_W = tr(egrad V) / 2 under the Lyapunov metric
        # tr(L[U] Sigma L[V]); the printed tangent rule is the metric dual
        # up to this constant factor, which is folded into the stepsize.
        rng = np.random.default_rng(3)
        point = mf.PdPoint(random_spd(3, rng))
        egrad = random_sym(3, rng)
        grad = mf.riem_grad_sigma(point, egrad)
        for _ in range(20):
            v = random_sym(3, rng)
            inner = np.trace(
                mf.lyapunov_solve(point, grad) @ point.sigma @ mf.lyapunov_solve(point, v)
            )
            assert inner == pytest.approx(0.5 * np.trace(egrad @ v), rel=1e-10)


class TestExpSigma:
    def test_zero_step(self):
        rng = np.random.default_rng(4)
        sig = random_spd(3, rng)
        out, halvings = mf.exp_sigma(sig, np.zeros((3, 3)))
        assert np.allclose(out.sigma, sig, atol=1e-14)
        assert halvings == 0

    def test_scalar_case(self):
        out, halvings = mf.exp_sigma(np.array([[1.0]]), np.array([[-0.2]]))
        assert out.sigma[0, 0] == pytest.approx(0.81, abs=1e-14)
        assert halvings == 0

    def test_first_order_consistency(self):
        # ||exp(Sigma, eps V) - (Sigma + eps V)||_F must shrink like eps^2:
        # the log2 ratio under eps-halving has slope >= 1.9.
        rng = np.random.default_rng(5)
        sig = mf.PdPoint(random_spd(2, rng))
        v = random_sym(2, rng)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            out = mf.exp_sigma(sig, eps * v)[0].sigma
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
        # -2I maps the Lyapunov image exactly onto the cone boundary and
        # -10I would wrap around on the non-geodesic branch; both are cut
        # back to L = -TRUST_CAP * I, so the image is (1 - 0.3)^2 I.
        for scale in (2.0, 10.0):
            out, halvings = mf.exp_sigma(np.eye(2), -scale * np.eye(2))
            assert np.allclose(out.sigma, 0.49 * np.eye(2), rtol=0.0, atol=1e-15)
            assert halvings == 0

    def test_contracting_step_is_capped(self):
        # L = diag(-5, 0.1): the cap reads the largest |eigenvalue|, 5, not
        # the largest eigenvalue, so L is scaled by 0.3/5 to diag(-0.3, 0.006).
        out, halvings = mf.exp_sigma(np.eye(2), np.diag([-10.0, 0.2]))
        assert np.allclose(out.sigma, np.diag([0.49, 1.006**2]), rtol=0.0, atol=1e-15)
        assert halvings == 0

    def test_exhausted_matrix_stays_while_its_neighbour_moves(self):
        # r sits 1e-9 relative above the PD floor of diag(1, r), and every
        # halving of the step toward zero still lands below it.
        r = 0.5 * PD_FLOOR * (1.0 + 1e-9)
        sigma0 = np.diag([1.0, r])
        assert r > PD_FLOOR * np.trace(sigma0) / 2
        stack = np.stack([sigma0, np.eye(2)])
        steps = np.stack([np.diag([0.0, -r]), -0.1 * np.eye(2)])
        out, halvings = mf.exp_sigma(stack, steps)
        assert halvings.tolist() == [mf.PD_RETRIES + 1, 0]
        assert out.sigma[0].tobytes() == sigma0.tobytes()
        assert np.allclose(out.sigma[1], 0.95**2 * np.eye(2), rtol=0.0, atol=1e-15)

    def test_stack_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(11)
        for m in (2, 5, 16):
            sigmas = np.stack([random_spd(m, rng) for _ in range(4)])
            steps = np.stack([0.05 * random_sym(m, rng) for _ in range(4)])
            out, halvings = mf.exp_sigma(sigmas, steps)
            assert halvings.tolist() == [0] * 4
            for i in range(4):
                one, h = mf.exp_sigma(sigmas[i], steps[i])
                assert h == 0
                for a, b in ((out.sigma[i], one.sigma), (out.lam[i], one.lam), (out.q[i], one.q)):
                    assert a.tobytes() == b.tobytes()

    def test_point_keeps_the_eigh_that_admitted_it(self):
        rng = np.random.default_rng(12)
        out, _ = mf.exp_sigma(random_spd(3, rng), 0.1 * random_sym(3, rng))
        lam, q = np.linalg.eigh(out.sigma)
        assert out.lam.tobytes() == lam.tobytes()
        assert out.q.tobytes() == q.tobytes()


class TestExpSphere:
    def test_zero_tangent(self):
        s = mf.SpherePoint(np.array([1.0, 0.0]))
        assert np.array_equal(mf.exp_sphere(s, np.zeros(2)).s, s.s)

    def test_great_circle_step(self):
        s = mf.SpherePoint(np.array([1.0, 0.0]))
        out = mf.exp_sphere(s, np.array([0.0, -0.1]))
        assert np.allclose(out.s, [np.cos(0.1), np.sin(0.1)], atol=1e-14)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            raw = rng.normal(size=4)
            s = mf.SpherePoint(raw / np.linalg.norm(raw))
            t = rng.normal(size=4)
            t = mf.project_sphere_grad(s, t)
            t *= rng.uniform(0.0, np.pi) / max(np.linalg.norm(t), 1e-12)
            out = mf.exp_sphere(s, t)
            assert abs(np.linalg.norm(out.s) - 1.0) <= 1e-12


class TestProjectSphereGrad:
    def test_parallel_gradient_vanishes(self):
        s = mf.sphere_from_weights([0.2, 0.3, 0.5])
        assert np.allclose(mf.project_sphere_grad(s, 3.0 * s.s), 0.0, atol=1e-14)

    def test_orthogonal_gradient_unchanged(self):
        s = mf.SpherePoint(np.array([1.0, 0.0]))
        g = np.array([0.0, 2.5])
        assert np.allclose(mf.project_sphere_grad(s, g), g, atol=1e-14)

    def test_output_orthogonal(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            raw = rng.normal(size=5)
            s = mf.SpherePoint(raw / np.linalg.norm(raw))
            out = mf.project_sphere_grad(s, rng.normal(size=5))
            assert abs(s.s @ out) <= 1e-12


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

