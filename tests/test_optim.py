"""Fitting loops: golden traces, determinism, invariants and fail-fast stops.

The golden fixture ``data/golden_fits.json`` holds seeded fits.  The
``radam`` entry was re-recorded when the scatter trust cap began to bound
contracting steps as well as expanding ones.  The ``vanilla``, ``radam``
and ``dadam`` entries were re-recorded when the Gaussian projected kernel
came to be evaluated in closed form (erf) instead of from its PCHIP table,
and the gradient's reduction to be summed by parts: ``radam`` mus moved by
1.8e-7 relative, every other recorded value by at most 1.2e-8.  The
``em`` entry, which uses neither, is as first recorded.  The ``radam``
entry was re-recorded once more when radam became Riemannian AMSGrad with
one scalar second moment per manifold factor in place of element-wise
moments: a different rule, so every value moved, by up to 0.25 in a
weight, 0.91 in a location entry, 2.3 in a scatter entry and 0.34 in a
cost (the final cost went from 0.400 to 0.344); the other entries kept
every bit.  The ``dadam`` entry was re-recorded when dadam's scatters
took the same per-scatter scalar second moment in place of p' v p: every
value moved, by up to 0.011 in a weight, 0.0012 in a location entry, 0.10
in a scatter entry and 0.016 in a cost (the final cost went from 0.0502
to 0.0519).  The ``radam`` scalar is now read as ||w p p'||_F^2, w^2 up
to rounding; its entry moved by at most 3.5e-14 relative and was kept,
and the ``vanilla`` and ``em`` entries kept every bit.  Re-record entries
only on purpose, naming each one, e.g.
``PYTHONPATH=src python tests/test_optim.py radam``; the entries not named
are left as they are, and with no name the script prints its usage and
writes nothing.
"""

import dataclasses
import gc
import json
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from _helpers import (
    ambient_step_fit,
    em_oracle,
    golden_case,
    golden_config,
    golden_fit,
    initialize_oracle,
    random_gmm,
)
from emmfit import families as fam
from emmfit import mixture as mx
from emmfit import optim
from emmfit.errors import DegenerateGridError, InvalidFamilyError, MismatchError, UnsupportedGradientError

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_fits.json"
GOLDEN_METHODS = ("vanilla", "radam", "dadam", "em")


def assert_same_bits(a, b):
    for x, y in ((a.weights, b.weights), (a.mus, b.mus), (a.sigmas, b.sigmas)):
        assert x.tobytes() == y.tobytes()


def fit_record(report) -> dict:
    final = report.final_model
    return {
        "weights": final.weights.tolist(),
        "mus": final.mus.tolist(),
        "sigmas": final.sigmas.tolist(),
        "costs": report.costs.tolist(),
    }


@pytest.fixture(scope="module")
def case():
    return golden_case()


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_golden_trace(case, method):
    expect = json.loads(GOLDEN.read_text())[method]
    got = fit_record(golden_fit(method, *case))
    for key, values in expect.items():
        np.testing.assert_allclose(got[key], values, rtol=1e-10, atol=0.0, err_msg=key)


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_repeated_seeded_fit_is_bitwise_identical(case, method):
    a = golden_fit(method, *case).final_model
    b = golden_fit(method, *case).final_model
    for x, y in ((a.weights, b.weights), (a.mus, b.mus), (a.sigmas, b.sigmas)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_iterates_stay_on_simplex_and_pd(case, method, monkeypatch):
    # Every iterate the loop builds passes through the model constructor.
    seen = []
    real = optim.MixtureModel

    def record(*args):
        model = real(*args)
        seen.append(model)
        return model

    monkeypatch.setattr(optim, "MixtureModel", record)
    report = golden_fit(method, *case)
    assert not report.failed
    assert len(seen) >= report.iterations
    for model in seen:
        assert np.all(model.weights >= 0.0)
        assert abs(model.weights.sum() - 1.0) <= 1e-12
        for sigma in model.sigmas:
            lam = np.linalg.eigvalsh(sigma)
            assert lam[0] > fam.PD_FLOOR * lam.sum() / model.m
    assert np.all(report.min_eig_ratio > 0.0)


EIGEN_ROUTINES = [(np.linalg, "eigh"), (np.linalg, "eigvalsh")]


def calls_per_iteration(case, monkeypatch, method, routines):
    """Calls per iteration of each kind of routine ({kind: [(owner, name)]})
    in the golden fit by method: the difference of a 40- and a 20-iteration
    fit, which leaves out the one-off validations of the start and result."""
    calls = dict.fromkeys(routines, 0)

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    for kind, names in routines.items():
        for owner, name in names:
            monkeypatch.setattr(owner, name, counting(kind, getattr(owner, name)))
    data, model0 = case
    totals = []
    for iters in (20, 40):
        calls.update(dict.fromkeys(calls, 0))
        cfg = optim.OptimizerConfig(method=method, alpha=0.03, max_iters=iters, em_tol=0.0, seed=5)
        assert optim.fit(model0, data, cfg).iterations == iters
        totals.append(dict(calls))
    return {kind: (totals[1][kind] - totals[0][kind]) / 20 for kind in calls}


def test_scatter_step_work_per_iteration(case, monkeypatch):
    # Per iteration, the momentum is kept as its Lyapunov image and each
    # adaptive step scales it by one scalar per scatter, so no method makes
    # a Lyapunov solve or takes an eigenbasis: one eigvalsh of the retracted
    # scatters admits them, so nothing validates them again.  The trust cap
    # reads eigenvalues (one more eigvalsh) only in steps whose Lyapunov
    # images can reach it, and no step of the golden fits can: radam's
    # scalar-scaled images stay as small as dadam's.
    routines = {
        "solve": [(optim.manifold, "lyapunov_solve")],
        "eigh": [(np.linalg, "eigh")],
        "eigvalsh": [(np.linalg, "eigvalsh")],
        "check_spd": [(fam, "check_spd"), (optim.manifold, "check_spd")],
    }
    for method in ("vanilla", "dadam", "radam"):
        per_iteration = calls_per_iteration(case, monkeypatch, method, routines)
        assert per_iteration == {"solve": 0, "eigh": 0, "eigvalsh": 1, "check_spd": 0}


@pytest.mark.parametrize("m", (2, 8, 16))
@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_scatter_step_matches_the_ambient_step_oracle(method, m):
    # Momentum kept as its Lyapunov image steps as the ambient momentum
    # carried by vector transport and solved for at every step did; the two
    # differ by rounding only, since the adaptive methods scale each scatter
    # by a scalar, which commutes with the solve.  The final models agree
    # entry by entry.  A cost near its minimum magnifies the iterates'
    # rounding, so the cost trace is held to 1e-10 of the start's.
    data = mx.generate_synthetic(m, 3, 1000, 4.0, 3.0, np.random.default_rng(m))
    model0 = optim.initialize(data, 3, fam.gaussian(m), "kmeanspp-lite", np.random.default_rng(m))
    cfg = optim.OptimizerConfig(method=method, alpha=0.03, max_iters=300, seed=m)
    report = optim.fit(model0, data, cfg)
    assert not report.failed and report.iterations == 300
    costs, final = ambient_step_fit(model0, data, cfg)
    np.testing.assert_allclose(report.costs, costs, rtol=0.0, atol=1e-10 * costs[0])
    got = report.final_model
    for x, y in ((got.weights, final.weights), (got.mus, final.mus), (got.sigmas, final.sigmas)):
        np.testing.assert_allclose(x, y, rtol=1e-10, atol=0.0)


def test_em_eigen_work_per_iteration(case, monkeypatch):
    # Per iteration: one stacked eigh flooring the k scatters, whose floored
    # eigenvalues also give the health record; the next model is built from
    # its (lam, q), so nothing validates the scatters again.
    routines = {"eig": EIGEN_ROUTINES, "check_spd": [(fam, "check_spd"), (optim.manifold, "check_spd")]}
    per_iteration = calls_per_iteration(case, monkeypatch, "em", routines)
    assert per_iteration["eig"] == 1
    assert per_iteration["check_spd"] == 0


# (method, alpha, seed, iteration) of m = 8 fits that drive a scatter onto
# the PD floor; the iteration is where each fit exhausts the PD safeguard.
# With one scalar second moment per scatter, dadam at alpha = 0.1 no longer
# reaches the floor at seeds 2 and 3, so its rows run at 0.3, as radam's do.
FLOOR_SITTING_FITS = [
    ("radam", 0.3, 1, 135),
    ("radam", 0.3, 2, 92),
    ("radam", 0.3, 3, 63),
    ("dadam", 0.3, 1, 64),
    ("dadam", 0.3, 2, 111),
    ("dadam", 0.3, 3, 94),
]


def revalidate_iterates(monkeypatch) -> list:
    """Make every model the fitting loops build pass check_spd from plain
    arrays too; returns the list the built models are appended to."""
    real_model = optim.MixtureModel
    built = []

    def revalidating_model(family, weights, mus, sigmas):
        model = real_model(family, weights, mus, sigmas)
        mx.MixtureModel(family, model.weights, model.mus, np.array(model.sigmas))
        built.append(model)
        return model

    monkeypatch.setattr(optim, "MixtureModel", revalidating_model)
    return built


def m8_case(seed):
    """The m = 8, k = 4, n = 5000 data set and kmeanspp-lite start of seed."""
    data = mx.generate_synthetic(8, 4, 5000, 4.0, 3.0, np.random.default_rng(seed))
    return data, optim.initialize(data, 4, fam.gaussian(8), "kmeanspp-lite", np.random.default_rng(seed))


@pytest.mark.parametrize("method, alpha, seed, raised_at", FLOOR_SITTING_FITS)
def test_floor_sitting_fit_returns_models_that_validate(method, alpha, seed, raised_at, monkeypatch):
    # The retraction admits a scatter just above the PD floor by the
    # eigvalsh that check_spd reads too, bit for bit.  Every step's model,
    # and the final one, must pass check_spd from plain arrays.
    # Each fit exhausts a scatter's PD safeguard at iteration raised_at, well
    # before max_iters, and must end there.
    revalidate_iterates(monkeypatch)
    data, model0 = m8_case(seed)
    cfg = optim.OptimizerConfig(method=method, alpha=alpha, max_iters=10 * raised_at, seed=seed)
    report = optim.fit(model0, data, cfg)
    last = report.iterations
    assert last == raised_at
    assert report.failed
    assert report.failure_reason == f"pd safeguard exhausted at iteration {last}"
    exhausted = [e for e in report.events if "pd safeguard exhausted" in e]
    assert exhausted and all(e.startswith(f"iter {last}: ") for e in exhausted)
    assert report.events[-1] == exhausted[-1]
    assert report.min_eig_ratio.min() < 1.001 * fam.PD_FLOOR
    final = report.final_model
    again = mx.MixtureModel(final.family, final.weights, final.mus, final.sigmas)
    assert again.sigmas.tobytes() == final.sigmas.tobytes()


# (alpha, seed): the iteration at which radam's element-wise rule exhausted
# a scatter's PD safeguard on the m8_case fit of that seed, at alpha = 0.03
# and at the default 0.1
ELEMENTWISE_RADAM_EXHAUSTED = {
    (0.03, 1): 59, (0.03, 2): 118, (0.03, 3): 83, (0.1, 1): 46, (0.1, 2): 46, (0.1, 3): 52,
}


@pytest.mark.parametrize("alpha, seed", sorted(ELEMENTWISE_RADAM_EXHAUSTED))
def test_radam_keeps_the_m8_scatters_off_the_floor(alpha, seed):
    # With one scalar second moment per scatter, radam runs five times as
    # long as the element-wise rule did on these fits without halving a
    # step, let alone ending on the PD floor.
    data, model0 = m8_case(seed)
    iters = 5 * ELEMENTWISE_RADAM_EXHAUSTED[alpha, seed]
    cfg = optim.OptimizerConfig(method="radam", alpha=alpha, max_iters=iters, seed=seed)
    report = optim.fit(model0, data, cfg)
    assert not report.failed and report.iterations == cfg.max_iters
    assert not [e for e in report.events if "halved" in e]


def test_dadam_keeps_a_wide_fit_off_the_floor():
    # The benchmark's wide shape, m = 16 and k = 8.  dadam's former scatter
    # moment p' v p, v a (k, m, m) decayed mean of w^2 p p', drove this fit
    # to a min-eigenvalue ratio of 8.7e-5 in 300 iterations; one scalar per
    # scatter ends it near 0.05.
    data = mx.generate_synthetic(16, 8, 4000, 4.0, 3.0, np.random.default_rng(3))
    model0 = optim.initialize(data, 8, fam.gaussian(16), "kmeanspp-lite", np.random.default_rng(3))
    report = optim.fit(model0, data, optim.OptimizerConfig(method="dadam", alpha=0.03, max_iters=300, seed=3))
    assert not report.failed and report.iterations == 300
    assert report.min_eig_ratio[-1] > 1e-3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_dadam_keeps_the_m8_scatters_off_the_floor(seed):
    # At the former default alpha = 0.1 the fit of seed 1 exhausted the PD
    # safeguard at iteration 332 and seeds 2-3 ended near a ratio of 1e-4.
    data, model0 = m8_case(seed)
    report = optim.fit(model0, data, optim.OptimizerConfig(max_iters=1000, seed=seed))
    assert not report.failed and report.iterations == 1000
    assert report.min_eig_ratio[-1] > 1e-3


@pytest.mark.parametrize("m", (2, 8))
@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_the_step_fed_a_zero_triple_stays_where_it_is(method, m):
    # The step takes its triple from any source.  Fed zeros for 50 steps it
    # logs no event, fails nowhere and keeps the locations and scatters to
    # the bit; renormalising the sphere may move a weight by an ulp.
    k = 4
    start = random_gmm(m, k, np.random.default_rng(m))
    model0 = mx.MixtureModel(start.family, start.weights, start.mus, optim.manifold._sym(start.sigmas))
    events = []
    step = optim._ManifoldStep(model0, golden_config(method), events)
    zero = (np.zeros(k), np.zeros((k, m)), np.zeros((k, m, m)))
    assert [step(h, *zero) for h in range(1, 51)] == [None] * 50
    assert events == []
    assert step.model.mus.tobytes() == model0.mus.tobytes()
    assert step.model.sigmas.tobytes() == model0.sigmas.tobytes()
    np.testing.assert_allclose(step.model.weights, model0.weights, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("method", ("radam", "dadam"))
def test_adaptive_steps_do_not_depend_on_coordinates(method):
    # Turning the coordinates by an orthogonal Q turns every adaptive step
    # and leaves its second moments as they are: the scatter moments fed the
    # images w p p' of Q p in place of p return Q U Q', and radam's location
    # moments fed the rows of g_mu turned by Q return the step's rows turned
    # (dadam's locations take plain steps), up to rounding.  An element-wise
    # rule fails this.
    rng = np.random.default_rng(4)
    k, m = 3, 5
    q = mx.random_orthogonal(m, rng)
    scatter = [optim._FactorMoments((k, m * m)) for _ in range(2)]
    locations = [optim._FactorMoments((k, m)) for _ in range(2)]

    def close(got, expect):
        np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-13 * np.abs(expect).max())

    for _ in range(6):
        p = rng.normal(size=m)
        p /= np.linalg.norm(p)
        w, g_mu = rng.normal(size=k), rng.normal(size=(k, m))
        images = ((w[:, None, None] * np.outer(d, d)).reshape(k, m * m) for d in (p, q @ p))
        step, turned = (moments.step(g, moments.m).reshape(k, m, m) for moments, g in zip(scatter, images))
        close(turned, q @ step @ q.T)
        close(scatter[1].vhat, scatter[0].vhat)
        if method == "radam":
            step, turned = (moments.step(g, moments.m) for moments, g in zip(locations, (g_mu, g_mu @ q.T)))
            close(turned, step @ q.T)
            close(locations[1].vhat, locations[0].vhat)


def test_em_floored_iterates_validate(monkeypatch):
    # Three far points pull one k-means++ start onto them: their scatter has
    # rank 2, so the EM floor holds six of its eight eigenvalues.  The loop
    # builds each iterate from the floor's (lam, q) unchecked; every one, and
    # the final model, must pass check_spd from plain arrays.
    data = mx.generate_synthetic(8, 3, 3000, 4.0, 3.0, np.random.default_rng(2))
    samples = np.vstack([data.samples, np.full((3, 8), 40.0) + np.eye(3, 8)])
    model0 = optim.initialize(samples, 4, fam.gaussian(8), "kmeanspp-lite", np.random.default_rng(0))
    built = revalidate_iterates(monkeypatch)
    report = optim.fit(model0, samples, optim.OptimizerConfig(method="em", max_iters=30, em_tol=0.0))
    assert not report.failed and report.iterations == 30
    assert len(built) == report.iterations + 1
    floor = 1e-6 * np.trace(mx.sample_covariance(samples)) / 8
    for model in built:
        np.testing.assert_allclose(np.linalg.eigvalsh(model.sigmas[1])[:6], floor, rtol=1e-9)


def em_oracle_agrees(report, oracle, rtol=1e-10):
    costs, events, final = oracle
    assert report.events == events
    np.testing.assert_allclose(report.costs, costs, rtol=rtol, atol=0.0)
    for got, want in zip(
        (report.final_model.weights, report.final_model.mus, report.final_model.sigmas),
        (final.weights, final.mus, final.sigmas),
    ):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


def em_case(n, seed):
    data = mx.generate_synthetic(3, 3, n, 4.0, 2.0, np.random.default_rng(seed))
    model0 = optim.initialize(data, 3, fam.gaussian(3), "kmeanspp-lite", np.random.default_rng(seed))
    return data, model0


EM_ORACLE_CFG = optim.OptimizerConfig(method="em", max_iters=25, em_tol=0.0, seed=3)


def test_em_matches_unblocked_oracle_on_golden_case(case):
    data, model0 = case
    cfg = optim.OptimizerConfig(method="em", alpha=0.03, max_iters=40, em_tol=0.0, seed=5)
    em_oracle_agrees(golden_fit("em", *case), em_oracle(model0, data, cfg))


def test_em_matches_unblocked_oracle_with_ragged_block():
    data, model0 = em_case(2 * mx.BLOCK + 37, 4)
    assert [b.shape[1] for b in mx.column_blocks(data.samples)] == [mx.BLOCK, mx.BLOCK, 37]
    report = optim.fit(model0, data, EM_ORACLE_CFG)
    em_oracle_agrees(report, em_oracle(model0, data, EM_ORACLE_CFG))


def test_em_matches_unblocked_oracle_through_a_reseed():
    # one start placed far from every sample: its responsibilities
    # underflow to zero, so it collapses at once and is reseeded
    data, model0 = em_case(5000, 6)
    mus = model0.mus.copy()
    mus[1] = 1e3
    far = mx.MixtureModel(model0.family, model0.weights, mus, model0.sigmas)
    report = optim.fit(far, data, EM_ORACLE_CFG)
    assert report.events[0] == "iter 1: component 1 collapsed, reseeded"
    em_oracle_agrees(report, em_oracle(far, data, EM_ORACLE_CFG))


def test_em_reseeds_two_collapses_of_one_iteration_in_component_order():
    # two starts placed far from every sample collapse together at iteration
    # 1; the live components' M-step divides by no zero mass, and the
    # reseeds log their events and draw their rows in component order
    data, model0 = em_case(5000, 6)
    mus = model0.mus.copy()
    mus[0], mus[2] = 1e3, -1e3
    far = mx.MixtureModel(model0.family, model0.weights, mus, model0.sigmas)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = optim.fit(far, data, dataclasses.replace(EM_ORACLE_CFG, max_iters=1))
        report = optim.fit(far, data, EM_ORACLE_CFG)
    assert report.events[:2] == first.events == [f"iter 1: component {i} collapsed, reseeded" for i in (0, 2)]
    rng = np.random.default_rng(EM_ORACLE_CFG.seed)
    drawn = [data.samples[rng.integers(data.samples.shape[0])] for _ in range(2)]
    np.testing.assert_array_equal(first.final_model.mus[[0, 2]], drawn)
    em_oracle_agrees(report, em_oracle(far, data, EM_ORACLE_CFG))


def test_em_does_not_depend_on_the_block_size(monkeypatch):
    data, model0 = em_case(5000, 8)
    default = optim.fit(model0, data, EM_ORACLE_CFG)
    monkeypatch.setattr(mx, "BLOCK", 1000)
    assert len(mx.column_blocks(data.samples)) == 5
    small = optim.fit(model0, data, EM_ORACLE_CFG)
    em_oracle_agrees(small, (default.costs, default.events, default.final_model))


def test_em_is_translation_equivariant():
    # EM on the samples shifted by 1e4 in every coordinate, from an equally
    # shifted start, is the unshifted fit shifted back.  Storing the shifted
    # samples and iterates rounds them at ulp(1e4) ~ 1.8e-12, which the 25
    # iterations carry to about 1e-12 in the locations and 1e-13 relative in
    # the weights, scatters and NLLs (measured); each tolerance leaves a
    # factor of about 1000 above that.  Second moments summed about the
    # data origin instead of each mu_i would lose about eps * 1e8 here; the
    # choice of centre for the folded whitening does not show at this shift,
    # since storing the shifted iterates already rounds at ulp(1e4).
    shift = 1e4
    data, model0 = em_case(5000, 9)
    base = optim.fit(model0, data, EM_ORACLE_CFG)
    start = mx.MixtureModel(model0.family, model0.weights, model0.mus + shift, model0.sigmas)
    moved = optim.fit(start, data.samples + shift, EM_ORACLE_CFG)
    assert moved.events == base.events
    a, b = base.final_model, moved.final_model
    np.testing.assert_allclose(b.mus - shift, a.mus, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(b.weights, a.weights, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(b.sigmas, a.sigmas, rtol=0.0, atol=1e-10 * np.abs(a.sigmas).max())
    np.testing.assert_allclose(moved.costs, base.costs, rtol=1e-10, atol=0.0)


def test_em_and_component_logpdf_leave_the_generator_argument_unchecked(case, monkeypatch):
    # the squared norms of the density kernel are nonnegative by
    # construction; the support check belongs to the public log_gen alone
    def refuse(t):
        raise AssertionError("the kernel re-checked its squared norms")

    monkeypatch.setattr(fam, "_as_t", refuse)
    data, model0 = case
    assert not golden_fit("em", data, model0).failed
    assert np.all(np.isfinite(model0.component_logpdf(data.samples)))


@pytest.mark.filterwarnings("error")
def test_overflowing_covariance_is_refused_at_the_boundary():
    # finite rows whose covariance exceeds the float range
    rows = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]])
    message = r"covariance overflows .* \(largest \|entry\| 1e\+200\)"
    for strategy in ("random", "kmeanspp-lite"):
        with pytest.raises(MismatchError, match=message):
            optim.initialize(rows, 1, fam.gaussian(2), strategy, np.random.default_rng(0))
    model0 = mx.MixtureModel(fam.gaussian(2), np.ones(1), np.zeros((1, 2)), np.eye(2)[None])
    for method in ("dadam", "em"):
        with pytest.raises(MismatchError, match=message):
            optim.fit(model0, rows, optim.OptimizerConfig(method=method, max_iters=3))


def test_the_source_hands_the_step_the_triple_euclidean_grad_returned(case, monkeypatch):
    data, model0 = case
    real_grad = optim.euclidean_grad
    made = []

    def recording(*args):
        made.append(real_grad(*args))
        return made[-1]

    monkeypatch.setattr(optim, "euclidean_grad", recording)
    _, triple = optim._direction_source(model0, data, np.random.default_rng(0))
    assert len(made) == 1 and triple is made[0]


def test_em_takes_no_triangular_solve_or_scipy_logsumexp(case, monkeypatch):
    import scipy.linalg
    import scipy.special

    def refuse(*args, **kwargs):
        raise AssertionError("a refused scipy routine was called")

    for owner, name in ((scipy.linalg, "solve_triangular"), (scipy.special, "logsumexp")):
        monkeypatch.setattr(owner, name, refuse)
        # and wherever an engine module imported the name itself
        for module in (mx, optim):
            monkeypatch.setattr(module, name, refuse, raising=False)
    report = golden_fit("em", *case)
    assert not report.failed
    assert report.iterations == 40


def test_em_and_nll_hold_few_sample_sized_buffers():
    n, m, k = 100_000, 8, 4
    data = mx.generate_synthetic(m, k, n, 4.0, 2.0, np.random.default_rng(3))
    model0 = optim.initialize(data, k, fam.gaussian(m), "kmeanspp-lite", np.random.default_rng(4))
    cfg = optim.OptimizerConfig(method="em", max_iters=3, em_tol=0.0)
    unit = 8 * n * m  # bytes of the samples
    peaks = []
    for run in (lambda: optim.fit(model0, data, cfg), lambda: mx.nll(model0, data.samples)):
        run()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / unit)
        finally:
            tracemalloc.stop()
    # EM: the blocked copy of the samples over a row of ones (1.125 units)
    # and one block's buffers, the (k, m + 1, BLOCK) whitened samples (0.37
    # units at this n) and (m, BLOCK) and (k, BLOCK) scratch, 1.66 units
    # measured.  nll reads x as (m, BLOCK) views: the (k, n) densities (0.5
    # units), the two (k, n) temporaries of their log-sum-exp and the block
    # buffers, 1.63 units measured.  Each bound was set at its peak, 1.58
    # and 1.63 units before the row of ones, plus 0.12 units (0.8 MB).
    assert peaks[0] < 1.7
    assert peaks[1] < 1.75


def test_traces_grow_with_the_iterations_that_ran():
    # an EM fit that converges long before max_iters holds its traces for
    # the iterations it ran: at max_iters = 10**6, traces allocated up front
    # would peak at about 31 MB
    data = mx.generate_synthetic(2, 3, 1500, 4.0, 3.0, np.random.default_rng(21))
    model0 = optim.initialize(data, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(22))
    cfg = optim.OptimizerConfig(method="em", em_tol=1e-8, max_iters=10**6)
    gc.collect()
    tracemalloc.start()
    try:
        report = optim.fit(model0, data, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.failed and report.iterations <= 100
    assert peak < 2**20


@pytest.mark.parametrize("method", ("dadam", "em"))
def test_report_to_dict_is_json_and_keeps_the_final_model(case, method):
    report = golden_fit(method, *case)
    doc = json.loads(json.dumps(report.to_dict()))
    final, loaded = report.final_model, mx.MixtureModel.from_dict(doc["final_model"])
    for x, y in ((final.weights, loaded.weights), (final.mus, loaded.mus), (final.sigmas, loaded.sigmas)):
        assert x.tobytes() == y.tobytes()
    assert loaded.family == final.family
    assert doc["config"] == golden_config(method).to_dict()


def test_weight_floor_is_reported(case):
    report = golden_fit("radam", *case)
    assert report.final_model.weights[0] < 1e-11
    assert any(e.endswith("weight floor for component 0") for e in report.events)


@pytest.mark.parametrize("h", (1, 3))
@pytest.mark.parametrize("method", ("radam", "dadam"))
def test_a_halving_that_lifts_the_scatter_is_reported(case, method, h, monkeypatch):
    # component 0 starts at diag(1, r) with r (1 + 3 t / 2^h) / 2 PD_FLOOR,
    # and the retraction is handed the Lyapunov image diag(0, -t) for it in
    # the first step and 0 elsewhere: it lifts the scatter off the floor after
    # h halvings (see test_manifold), so the fit reports them and goes on
    data, start = case
    t = 0.29
    r = 0.5 * fam.PD_FLOOR * (1.0 + 3.0 * t / 2.0**h)
    sigmas = start.sigmas.copy()
    sigmas[0] = np.diag([1.0, r])
    model0 = mx.MixtureModel(start.family, start.weights, start.mus, sigmas)
    steps = []
    real_exp = optim.manifold.exp_sigma

    def exp_sigma(point, step):
        lyap = np.zeros_like(step)
        if not steps:
            lyap[0] = np.diag([0.0, -t])
        steps.append(lyap)
        return real_exp(point, lyap)

    monkeypatch.setattr(optim.manifold, "exp_sigma", exp_sigma)
    report = optim.fit(model0, data, optim.OptimizerConfig(method=method, alpha=0.03, max_iters=3, seed=5))
    assert not report.failed and report.iterations == 3 and len(steps) == 3
    assert report.events == [f"iter 1: step halved {h}x for component 0"]
    # the halved step moved the scatter, and it sits above the floor
    final = report.final_model.sigmas[0]
    assert final[1, 1] == pytest.approx((1.0 - t / 2.0**h) ** 2 * r, rel=1e-12, abs=0.0)
    assert final[1, 1] > fam.PD_FLOOR * np.trace(final) / 2


def test_family_without_gradient_raises_up_front(case):
    data, model0 = case
    stable = mx.MixtureModel(fam.AlphaStable(m=2), model0.weights, model0.mus, model0.sigmas)
    for method in ("vanilla", "radam", "dadam"):
        cfg = optim.OptimizerConfig(method=method, max_iters=50)
        with pytest.raises(UnsupportedGradientError):
            optim.fit(stable, data, cfg)


@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_projection_failure_stops_at_once(case, method):
    # Every component far outside the data: no model mass lands on the grid.
    data, model0 = case
    far = mx.MixtureModel(model0.family, model0.weights, np.full_like(model0.mus, 1e4), model0.sigmas)
    report = golden_fit(method, data, far)
    assert report.failed
    assert report.iterations == 1
    assert "iteration 1" in report.failure_reason


@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_non_finite_start_stops_at_once(case, method):
    # A start with NaN locations is refused where it is built; one so far off
    # the data that its projections put no mass on the grid ends the fit at
    # its first iteration.
    data, model0 = case
    with pytest.raises(InvalidFamilyError):
        mx.MixtureModel(model0.family, model0.weights, np.full_like(model0.mus, np.nan), model0.sigmas)
    lost = mx.MixtureModel(model0.family, model0.weights, model0.mus + 1e200, model0.sigmas)
    report = golden_fit(method, data, lost)
    assert report.failed
    assert report.iterations == 1
    assert report.failure_reason == "projection failure at iteration 1"


@pytest.mark.parametrize("a", (0.3, 0.5))
def test_non_integrable_kotz_raises_up_front(case, a):
    data, model0 = case
    spiky = mx.MixtureModel(fam.Kotz(m=2, a=a), model0.weights, model0.mus, model0.sigmas)
    for method in ("vanilla", "radam", "dadam"):
        with pytest.raises(UnsupportedGradientError):
            golden_fit(method, data, spiky)


BAD_SAMPLES = ("nan", "inf", "no rows", "one row vector", "extra column", "extra column dataset")


def bad_samples(case, kind):
    """Samples the fit must refuse, and the error it must raise."""
    samples = case[0].samples
    if kind == "nan":
        samples = samples.copy()
        samples[7, 1] = np.nan
    elif kind == "inf":
        samples = samples.copy()
        samples[0, 0] = -np.inf
    elif kind == "no rows":
        samples = samples[:0]
    elif kind == "one row vector":
        samples = samples[0]
    elif kind == "extra column":
        return np.hstack([samples, samples[:, :1]]), MismatchError
    else:
        return mx.Dataset(np.hstack([samples, samples[:, :1]])), MismatchError
    return samples, InvalidFamilyError


@pytest.mark.parametrize("kind", BAD_SAMPLES)
@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_raw_samples_are_checked_at_the_boundary(case, method, kind):
    samples, error = bad_samples(case, kind)
    with pytest.raises(error):
        optim.fit(case[1], samples, optim.OptimizerConfig(method=method, max_iters=5))


@pytest.mark.parametrize("kind", BAD_SAMPLES)
def test_initialize_checks_raw_samples(case, kind):
    samples, error = bad_samples(case, kind)
    with pytest.raises(error):
        optim.initialize(samples, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(0))


def seeding_samples(m, seed):
    """At most 2000 rows with repeats: rows drawn with replacement from a
    smaller set of distinct ones, on scales that differ per column."""
    rng = np.random.default_rng([m, seed])
    distinct = rng.normal(size=(100 + 300 * seed, m)) * rng.uniform(0.1, 10.0, size=m)
    return distinct[rng.integers(len(distinct), size=500 + 700 * seed)]


class DrawRecorder:
    """A seeded generator that keeps the probabilities of every ``choice``."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.probs = []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def choice(self, n, p):
        self.probs.append(p.tobytes())
        return self.rng.choice(n, p=p)


def assert_seeds_like_the_oracle(samples, k, seed):
    family = fam.gaussian(samples.shape[1])
    draws = DrawRecorder(seed), DrawRecorder(seed)
    got = optim.initialize(samples, k, family, "kmeanspp-lite", draws[0])
    want = initialize_oracle(samples, k, family, draws[1])
    for x, y in ((got.weights, want.weights), (got.mus, want.mus), (got.sigmas, want.sigmas)):
        assert x.tobytes() == y.tobytes()
    assert len(draws[0].probs) == k - 1 and draws[0].probs == draws[1].probs


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k", (1, 2, 4, 8))
@pytest.mark.parametrize(
    "m, layout",
    [pytest.param(m, np.ascontiguousarray, id=str(m)) for m in (1, 2, 3, 8, 9, 16, 17)]
    + [pytest.param(m, np.asfortranarray, id=f"{m}-fortran") for m in (8, 16)],
)
def test_kmeanspp_matches_the_quadratic_oracle_bitwise(m, layout, k, seed):
    assert_seeds_like_the_oracle(layout(seeding_samples(m, seed)), k, seed)


@pytest.mark.parametrize("m", (1, 2, 8, 17))
def test_kmeanspp_matches_the_quadratic_oracle_across_blocks(m):
    # three full blocks of rows and a ragged one, with repeated rows
    n = 3 * (fam.ROW_SUM_BLOCK // m) + 5
    rng = np.random.default_rng(m)
    distinct = rng.normal(size=(n // 4, m)) * rng.uniform(0.1, 10.0, size=m)
    assert_seeds_like_the_oracle(distinct[rng.integers(len(distinct), size=n)], 4, m)


@pytest.mark.parametrize("m", (2, 8, 16))
def test_kmeanspp_draws_do_not_depend_on_the_memory_layout(m):
    # numpy sums the rows of a Fortran-ordered array as a left fold, which
    # from 8 columns on differs from its pairwise sum of C-ordered rows
    samples = seeding_samples(m, 1)
    draws = DrawRecorder(0), DrawRecorder(0)
    for layout, recorder in zip((np.ascontiguousarray, np.asfortranarray), draws):
        optim.initialize(layout(samples), 8, fam.gaussian(m), "kmeanspp-lite", recorder)
    assert len(draws[0].probs) == 7 and draws[0].probs == draws[1].probs


def test_kmeanspp_makes_no_temporary_of_the_samples_size():
    data = mx.Dataset(np.random.default_rng(5).normal(size=(50_000, 8)))
    data.covariance  # taken once per Dataset, before the first start
    tracemalloc.start()
    try:
        optim.initialize(data, 4, fam.gaussian(8), "kmeanspp-lite", np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak is the draw's: d2, its normalised copy and the cumulative sum
    # inside rng.choice, 0.42 units of the samples' size measured; the
    # kernel's block buffers (0.24 units) are freed by then.  An (n, m)
    # buffer of differences took the peak to 1.5 units.
    assert peak < data.samples.nbytes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(3))
def test_kmeanspp_refuses_squared_distances_beyond_the_float_range(seed):
    # the covariance (6.7e307 in the first column) fits the float range,
    # the squared distance between the first two rows (4e308) does not
    rows = np.array([[1e154, 0.0], [-1e154, 0.0], [0.0, 1.0], [0.5, 0.2]])
    with pytest.raises(MismatchError, match=r"largest \|entry\| 1e\+154\); rescale it"):
        optim.initialize(rows, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(seed))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, rows", [(2, [[1.5, -2.0]] * 6), (3, [[0.0, 1.0], [2.0, 3.0]] * 5)])
def test_kmeanspp_refuses_fewer_distinct_rows_than_k(k, rows):
    distinct = len({tuple(r) for r in rows})
    with pytest.raises(MismatchError, match=f"k={k} distinct rows; the data has {distinct}"):
        optim.initialize(np.array(rows), k, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rows, k, strategy",
    [(np.ones((6, 2)), 2, "random"), (np.ones((1, 2)), 1, "random"), (np.ones((6, 2)), 1, "kmeanspp-lite")],
)
def test_initialize_refuses_data_without_spread(rows, k, strategy):
    with pytest.raises(MismatchError, match=f"{strategy} start needs data with spread"):
        optim.initialize(rows, k, fam.gaussian(2), strategy, np.random.default_rng(0))


def test_initialize_needs_k_rows_and_a_known_strategy(case):
    data, _ = case
    with pytest.raises(MismatchError, match="need at least k=3 samples, got 2"):
        optim.initialize(data.samples[:2], 3, fam.gaussian(2), "random", np.random.default_rng(0))
    with pytest.raises(MismatchError, match="unknown initialization strategy 'kmeans'"):
        optim.initialize(data, 2, fam.gaussian(2), "kmeans", np.random.default_rng(0))


def test_config_refuses_an_unknown_method():
    with pytest.raises(MismatchError, match="unknown method 'adam'"):
        optim.OptimizerConfig(method="adam")


def test_em_refuses_a_family_other_than_the_gaussian(case):
    data, model0 = case
    kotz = fam.Kotz(m=2, a=1.5, b=0.5, s=1.0)
    start = mx.MixtureModel(kotz, model0.weights, model0.mus, model0.sigmas)
    with pytest.raises(MismatchError, match="Gaussian family only"):
        optim.fit(start, data, optim.OptimizerConfig(method="em", max_iters=3))


@pytest.mark.parametrize("k", (0, -1, 2.0, True, "2"))
def test_initialize_refuses_a_k_that_is_not_a_positive_integer(case, k):
    data, _ = case
    with pytest.raises(MismatchError, match="k must be an integer of at least 1"):
        optim.initialize(data, k, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(0))


@pytest.mark.parametrize("args", ([], ["adam"]))
def test_regenerator_without_a_known_name_writes_nothing(args):
    before = GOLDEN.read_bytes()
    run = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    assert run.returncode != 0
    assert "usage" in run.stderr
    assert GOLDEN.read_bytes() == before


def test_importing_emmfit_leaves_scipy_optimize_and_integrate_unloaded():
    # the matching past K_EXACT components and Logistic's normalising
    # constant import them where they are used
    code = (
        "import importlib, pkgutil, sys, emmfit\n"
        "for module in pkgutil.iter_modules(emmfit.__path__):\n"
        "    importlib.import_module('emmfit.' + module.name)\n"
        "names = ('emmfit.families', 'emmfit.optim', 'emmfit.transport', 'scipy.integrate', 'scipy.optimize')\n"
        "print(*(name for name in names if name in sys.modules))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["emmfit.families", "emmfit.optim", "emmfit.transport"]


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_iters", 2.5), ("max_iters", True), ("seed", -1), ("seed", 1.5), ("alpha", np.inf), ("em_tol", np.nan),
        ("alpha", True), ("alpha", "0.1"),
    ],
)
def test_config_refuses_settings_no_fit_runs_with(name, value):
    # every setting no fit can run with; the decays are the constants
    # optim.BETA1 and optim.BETA2, not settings
    with pytest.raises(MismatchError, match=name):
        optim.OptimizerConfig(**{name: value})


def test_config_takes_numpy_integers_as_ints():
    cfg = optim.OptimizerConfig(max_iters=np.int64(3), seed=np.uint32(7))
    assert type(cfg.max_iters) is int and type(cfg.seed) is int
    assert json.loads(json.dumps(cfg.to_dict())) == optim.OptimizerConfig(max_iters=3, seed=7).to_dict()


def test_config_takes_numpy_floats_as_floats(case):
    # a numpy float setting leaves the record strict JSON
    cfg = optim.OptimizerConfig(alpha=np.float32(0.03), em_tol=np.float16(0.5), max_iters=3)
    assert type(cfg.alpha) is float and type(cfg.em_tol) is float
    assert cfg.alpha == float(np.float32(0.03))
    report = optim.fit(case[1], case[0], cfg)
    record = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert record["config"] == cfg.to_dict() and optim.OptimizerConfig(**record["config"]) == cfg


def test_config_has_five_settings_and_constant_decays():
    assert [f.name for f in dataclasses.fields(optim.OptimizerConfig)] == [
        "method", "alpha", "max_iters", "seed", "em_tol"
    ]
    assert (optim.BETA1, optim.BETA2) == (0.9, 0.999)


def test_report_reads_method_and_seed_from_its_config(case):
    report = golden_fit("radam", *case)
    assert not {"method", "seed"} & {f.name for f in dataclasses.fields(optim.FitReport)}
    assert (report.method, report.seed) == ("radam", 5) and report.config == golden_config("radam").to_dict()


def test_report_to_dict_is_strict_json_after_a_projection_failure(case, monkeypatch):
    real_project = optim.transport.project_model
    calls = []

    def failing_at_the_third(model, ctx):
        calls.append(None)
        if len(calls) == 3:
            raise DegenerateGridError("forced")
        return real_project(model, ctx)

    monkeypatch.setattr(optim.transport, "project_model", failing_at_the_third)
    report = golden_fit("dadam", *case)
    assert report.failed and report.iterations == 3
    assert report.failure_reason == "projection failure at iteration 3"
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["final_cost"] is None
    assert doc["iterations"] == 3


def test_report_to_dict_writes_a_non_finite_cost_as_null(case):
    report = golden_fit("dadam", *case)
    for bad in (np.inf, -np.inf, np.nan):
        report.costs[-1] = bad
        assert json.loads(json.dumps(report.to_dict(), allow_nan=False))["final_cost"] is None


def test_first_failure_is_kept(case, monkeypatch):
    # A non-finite cost at iteration 1 ends the fit there, before its step:
    # the safeguard that would be exhausted at iteration 2 is never reached.
    real_w2, real_exp = optim.transport.projected_w2, optim.manifold.exp_sigma
    calls = {"w2": 0, "exp": 0}

    def nan_first(ctx, projected):
        calls["w2"] += 1
        return np.nan if calls["w2"] == 1 else real_w2(ctx, projected)

    def exhausted_second(point, step):
        calls["exp"] += 1
        point, halvings = real_exp(point, step)
        if calls["exp"] == 2:
            halvings = np.full_like(halvings, optim.manifold.PD_RETRIES + 1)
        return point, halvings

    monkeypatch.setattr(optim.transport, "projected_w2", nan_first)
    monkeypatch.setattr(optim.manifold, "exp_sigma", exhausted_second)
    report = golden_fit("dadam", *case)
    assert report.failure_reason == "non-finite cost or gradient at iteration 1"
    assert report.failed and report.iterations == 1
    assert calls == {"w2": 1, "exp": 0}
    assert np.isnan(report.costs[0]) and report.events == []
    assert_same_bits(report.final_model, case[1])


def first_iterations(model0, data, cfg, h):
    """The model and cost trace that the first h - 1 iterations of cfg's fit
    reach."""
    if h == 1:
        return model0, np.empty(0)
    report = optim.fit(model0, data, dataclasses.replace(cfg, max_iters=h - 1))
    return report.final_model, report.costs


def assert_ends_at(report, h, reason, before):
    """report ended, failed, at iteration h with the model and the costs of
    the iterations before it."""
    assert report.failed and report.iterations == h
    assert report.failure_reason == f"{reason} at iteration {h}"
    assert report.costs[: h - 1].tobytes() == before[1].tobytes()
    assert_same_bits(report.final_model, before[0])


@pytest.mark.parametrize("bad", (np.nan, np.inf))
@pytest.mark.parametrize("h", (1, 3))
@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_non_finite_cost_ends_the_fit_before_its_step(case, method, h, bad, monkeypatch):
    data, model0 = case
    before = first_iterations(model0, data, golden_config(method), h)
    real_w2 = optim.transport.projected_w2
    calls = []

    def bad_from_iteration_h(ctx, projected):
        calls.append(None)
        return bad if len(calls) >= h else real_w2(ctx, projected)

    monkeypatch.setattr(optim.transport, "projected_w2", bad_from_iteration_h)
    report = golden_fit(method, data, model0)
    assert_ends_at(report, h, "non-finite cost or gradient", before)
    np.testing.assert_equal(report.costs[-1], bad)


@pytest.mark.parametrize("index", (0, 1, 2))
def test_non_finite_gradient_ends_the_fit_before_its_step(case, index, monkeypatch):
    # one NaN in the sqrt-weight gradient, the location gradient or the
    # scatter image of iteration 3
    data, model0 = case
    before = first_iterations(model0, data, golden_config("dadam"), 3)
    real_grad = optim.euclidean_grad
    calls = []

    def nan_at_iteration_3(model, ctx, projected):
        triple = real_grad(model, ctx, projected)
        calls.append(None)
        if len(calls) == 3:
            triple[index].flat[0] = np.nan
        return triple

    monkeypatch.setattr(optim, "euclidean_grad", nan_at_iteration_3)
    report = golden_fit("dadam", data, model0)
    assert_ends_at(report, 3, "non-finite cost or gradient", before)
    assert np.isfinite(report.costs).all()


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_a_non_finite_slope_ends_the_fit(case, bad, monkeypatch):
    # no gradient node is screened: a slope that is not finite at one cell
    # edge of iteration 3 ends the fit there, before its step
    data, model0 = case
    before = first_iterations(model0, data, golden_config("dadam"), 3)
    real_slope = fam.EllipticalFamily.gen_primitive_slope
    calls = []

    def bad_node_at_iteration_3(family, u):
        out = real_slope(family, u)
        calls.append(None)
        if len(calls) == 3:
            # the edge where component 1's kernel peaks, so the node matters
            out[1, np.argmin(np.abs(u[1]))] = bad
        return out

    monkeypatch.setattr(fam.EllipticalFamily, "gen_primitive_slope", bad_node_at_iteration_3)
    report = golden_fit("dadam", data, model0)
    assert_ends_at(report, 3, "non-finite cost or gradient", before)
    assert np.isfinite(report.costs).all()


@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_a_step_past_the_float_range_ends_the_fit(case, method):
    # alpha = 1e300 is a valid setting whose first weight step leaves the
    # float range: the fit ends there with its start and no warning
    data, model0 = case
    cfg = dataclasses.replace(golden_config(method), alpha=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optim.fit(model0, data, cfg)
    assert_ends_at(report, 1, "non-finite step", (model0, np.empty(0)))
    assert np.isfinite(report.costs).all()
    json.dumps(report.to_dict(), allow_nan=False)


def test_a_scatter_step_past_the_float_range_keeps_the_scatter(case):
    # one component has no weight step, and dadam's location step stays in
    # range; its scatter image overflows at alpha = 1e308, which ends the fit
    # there with its start, location and scatter alike, and no warning
    data, _ = case
    model0 = optim.initialize(data, 1, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(3))
    cfg = dataclasses.replace(golden_config("dadam"), alpha=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optim.fit(model0, data, cfg)
    assert_ends_at(report, 1, "non-finite step", (model0, np.empty(0)))
    assert report.events == []
    json.dumps(report.to_dict(), allow_nan=False)


@pytest.mark.parametrize("h", (1, 3))
def test_non_finite_nll_ends_em_with_the_last_model(case, h, monkeypatch):
    data, model0 = case
    assert len(mx.column_blocks(data.samples)) == 1
    before = first_iterations(model0, data, golden_config("em"), h)
    real_normalize = optim.normalize_columns
    calls = []

    def nan_at_iteration_h(a):
        calls.append(None)
        out = real_normalize(a)
        return np.full_like(out, np.nan) if len(calls) == h else out

    monkeypatch.setattr(optim, "normalize_columns", nan_at_iteration_h)
    report = golden_fit("em", data, model0)
    assert_ends_at(report, h, "non-finite NLL", before)
    assert np.isnan(report.costs[-1]) and len(calls) == h


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_fit_is_rebuilt_from_its_record(method):
    # a fit depends on its start, its data and its config alone: the config
    # read back from the JSON record gives the same fit, bit for bit
    data = mx.generate_synthetic(2, 3, 1500, 4.0, 3.0, np.random.default_rng(21))
    model0 = optim.initialize(data, 3, fam.gaussian(2), "kmeanspp-lite", np.random.default_rng(22))
    cfg = optim.OptimizerConfig(method=method, alpha=0.03, max_iters=30, seed=23)
    report = optim.fit(model0, data, cfg)
    record = json.loads(json.dumps(report.to_dict()))
    assert record["seed"] == record["config"]["seed"] == report.seed == 23
    again = optim.fit(model0, data, optim.OptimizerConfig(**record["config"]))
    assert not again.failed and again.iterations == report.iterations
    assert_same_bits(again.final_model, report.final_model)
    assert again.costs.tobytes() == report.costs.tobytes()


def health(sigmas) -> float:
    """min over the scatters of lambda_min / (trace / m)."""
    ratio = np.linalg.eigvalsh(sigmas)[:, 0] / (np.trace(sigmas, axis1=1, axis2=2) / sigmas.shape[-1])
    return ratio.min()


@pytest.mark.parametrize("method", ("vanilla", "radam", "dadam"))
def test_health_record_is_each_retracted_points_read(case, method, monkeypatch):
    # every entry is the read of the point the retraction returned that
    # iteration, bit for bit
    points = []
    real_exp_sigma = optim.manifold.exp_sigma

    def capture(point, lyap):
        out = real_exp_sigma(point, lyap)
        points.append(out[0].sigma.copy())
        return out

    monkeypatch.setattr(optim.manifold, "exp_sigma", capture)
    report = golden_fit(method, *case)
    assert not report.failed and len(points) == report.iterations
    want = np.array([health(sigmas) for sigmas in points])
    assert report.min_eig_ratio.tobytes() == want.tobytes()


def test_em_health_record_is_each_iterates_read(case, monkeypatch):
    # EM records the floored eigenvalues it rebuilt each iterate from,
    # within 4 ulps of the iterate's own read
    iterates = []
    real_model = optim.MixtureModel

    def capture(family, weights, mus, sigmas):
        if isinstance(sigmas, optim.PdPoint):
            iterates.append(sigmas.sigma.copy())
        return real_model(family, weights, mus, sigmas)

    monkeypatch.setattr(optim, "MixtureModel", capture)
    report = golden_fit("em", *case)
    assert not report.failed and len(iterates) == report.iterations
    want = np.array([health(sigmas) for sigmas in iterates])
    assert np.all(np.abs(report.min_eig_ratio - want) <= 4 * np.finfo(float).eps * want)


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_record_traces_every_iteration(case, method):
    report = golden_fit(method, *case)
    for trace in (report.costs, report.wall_ms, report.min_eig_ratio):
        assert trace.shape == (report.iterations,)
    final = report.final_model
    lam_min = np.linalg.eigh(final.sigmas)[0][:, 0]
    want = np.min(lam_min / (np.trace(final.sigmas, axis1=1, axis2=2) / final.m))
    assert report.min_eig_ratio[-1] == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0.0)


if __name__ == "__main__":
    methods = sys.argv[1:]
    if not methods or not set(methods) <= set(GOLDEN_METHODS):
        sys.exit(
            "usage: PYTHONPATH=src python tests/test_optim.py METHOD [METHOD ...]\n"
            f"re-records the named entries of {GOLDEN.name}; METHOD is one of {', '.join(GOLDEN_METHODS)}"
        )
    data, model0 = golden_case()
    doc = json.loads(GOLDEN.read_text())
    for method in methods:
        doc[method] = fit_record(golden_fit(method, data, model0))
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
