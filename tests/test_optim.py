"""Fitting loops: golden traces, determinism, invariants and fail-fast stops.

The golden fixture ``data/golden_fits.json`` holds seeded fits recorded
before the optimiser was reduced to its seven settings.  The ``radam``
entry was re-recorded when the scatter trust cap began to bound
contracting steps as well as expanding ones.  The ``vanilla``, ``radam``
and ``dadam`` entries were re-recorded when the Gaussian projected kernel
came to be evaluated in closed form (erf) instead of from its PCHIP table,
and the gradient's reduction to be summed by parts: ``radam`` mus moved by
1.8e-7 relative, every other recorded value by at most 1.2e-8.  The
``em`` entry, which uses neither, is as first recorded.
Re-record entries only on purpose, naming each one, e.g.
``PYTHONPATH=src python tests/test_optim.py radam``; the entries not named
are left as they are, and with no name the script prints its usage and
writes nothing.
"""

import gc
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import golden_case, golden_fit
from emmfit import families as fam
from emmfit import mixture as mx
from emmfit import optim
from emmfit.errors import InvalidFamilyError, MismatchError, UnsupportedGradientError

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_fits.json"
GOLDEN_METHODS = ("vanilla", "radam", "dadam", "em")


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
    assert np.all(report.weight_gap <= 1e-12)
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
    # Per iteration: one Lyapunov solve in the retraction, one in the
    # momentum transport; one eigh of the retracted scatters, which admits
    # them, so nothing validates them again.  The trust cap reads eigenvalues
    # (eigvalsh) only in steps whose Lyapunov images can reach it; the
    # golden dadam fit has none, the radam one has some.
    hooks = SimpleNamespace(near_cap=lambda: None)
    real_trust_cap = optim.manifold._trust_cap

    def trust_cap(lyap):
        if np.any(np.linalg.norm(lyap, axis=(1, 2)) > 0.99 * optim.manifold.TRUST_CAP):
            hooks.near_cap()
        real_trust_cap(lyap)

    monkeypatch.setattr(optim.manifold, "_trust_cap", trust_cap)
    routines = {
        "solve": [(optim.manifold, "lyapunov_solve")],
        "eigh": [(np.linalg, "eigh")],
        "eigvalsh": [(np.linalg, "eigvalsh")],
        "check_spd": [(fam, "check_spd"), (optim.manifold, "check_spd")],
        "near_cap": [(hooks, "near_cap")],
    }
    for method in ("dadam", "radam"):
        per_iteration = calls_per_iteration(case, monkeypatch, method, routines)
        assert per_iteration["solve"] <= 2
        assert per_iteration["eigh"] == 1
        assert per_iteration["check_spd"] == 0
        assert per_iteration["eigvalsh"] <= per_iteration["near_cap"]
        assert (per_iteration["near_cap"] > 0) == (method == "radam")


def test_em_eigen_work_per_iteration(case, monkeypatch):
    # Per iteration: one stacked eigh flooring the k scatters, whose floored
    # eigenvalues also give the health record, and one eigh validating the
    # new model.
    assert calls_per_iteration(case, monkeypatch, "em", {"eig": EIGEN_ROUTINES})["eig"] <= 2


# (method, alpha, seed, iteration) of m = 8 fits that drive a scatter onto
# the PD floor; the iteration is where the fit raised NotPositiveDefiniteError
# when each step's model re-decided the floor from eigvalsh
FLOOR_SITTING_FITS = [
    ("radam", 0.03, 1, 57),
    ("radam", 0.03, 2, 118),
    ("radam", 0.03, 3, 79),
    ("dadam", 0.1, 1, 202),
    ("dadam", 0.1, 2, 209),
]


@pytest.mark.parametrize("method, alpha, seed, raised_at", FLOOR_SITTING_FITS)
def test_floor_sitting_fit_returns_models_that_validate(method, alpha, seed, raised_at, monkeypatch):
    # The retraction admits a scatter just above the PD floor by its eigh,
    # and eigvalsh can read its smallest eigenvalue a few ulps lower.  Every
    # step's model, and the final one, must pass check_spd from plain arrays.
    # Each fit exhausts a scatter's PD safeguard well before max_iters, and
    # must end at the first iteration that does.
    real_model = optim.MixtureModel

    def revalidating_model(family, weights, mus, sigmas):
        model = real_model(family, weights, mus, sigmas)
        mx.MixtureModel(family, model.weights, model.mus, np.array(model.sigmas))
        return model

    monkeypatch.setattr(optim, "MixtureModel", revalidating_model)
    data = mx.generate_synthetic(8, 4, 5000, 4.0, 3.0, np.random.default_rng(seed))
    model0 = optim.initialize(data, 4, fam.gaussian(8), "kmeanspp-lite", np.random.default_rng(seed))
    cfg = optim.OptimizerConfig(method=method, alpha=alpha, max_iters=10 * raised_at, seed=seed)
    report = optim.fit(model0, data, cfg)
    last = report.iterations
    assert last < cfg.max_iters
    assert report.failed
    assert report.failure_reason == f"pd safeguard exhausted at iteration {last}"
    exhausted = [e for e in report.events if "pd safeguard exhausted" in e]
    assert exhausted and all(e.startswith(f"iter {last}: ") for e in exhausted)
    assert report.events[-1] == exhausted[-1]
    assert report.min_eig_ratio.min() < 1.001 * fam.PD_FLOOR
    final = report.final_model
    again = mx.MixtureModel(final.family, final.weights, final.mus, final.sigmas)
    assert again.sigmas.tobytes() == final.sigmas.tobytes()


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
    # EM: the (m, n) copy of the samples, two (m, n) buffers and the (k, n)
    # densities with their temporaries, 4.75 units (fresh per-component
    # temporaries in (n, m) layout peak at 5.75); nll reads x^T as a view
    # and peaks at 3.50 units.
    assert peaks[0] < 5.0
    assert peaks[1] < 3.6


def test_weight_floor_is_reported(case):
    report = golden_fit("radam", *case)
    assert report.final_model.weights[0] < 1e-11
    assert any(e.endswith("weight floor for component 0") for e in report.events)


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
    # NaN locations give NaN cell masses, which the projection refuses.
    data, model0 = case
    lost = mx.MixtureModel(model0.family, model0.weights, np.full_like(model0.mus, np.nan), model0.sigmas)
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


@pytest.mark.parametrize("args", ([], ["adam"]))
def test_regenerator_without_a_known_name_writes_nothing(args):
    before = GOLDEN.read_bytes()
    run = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    assert run.returncode != 0
    assert "usage" in run.stderr
    assert GOLDEN.read_bytes() == before


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
