"""Fitting loops: golden traces, determinism, invariants and fail-fast stops.

The golden fixture ``data/golden_fits.json`` holds seeded fits recorded
before the optimiser was reduced to its seven settings.  The ``radam``
entry alone was re-recorded when the scatter trust cap began to bound
contracting steps as well as expanding ones; the others are as first recorded.
Re-record entries only on purpose, naming each one, e.g.
``PYTHONPATH=src python tests/test_optim.py radam``; the entries not named
are left as they are, and with no name the script prints its usage and
writes nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

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


def test_scatter_step_work_per_iteration(case, monkeypatch):
    # Per iteration: one Lyapunov solve in the retraction, one in the
    # momentum transport; one eigvalsh for the trust cap, one eigh of the
    # retracted scatters, one eigvalsh validating the new model.
    calls = {"solve": 0, "eig": 0}

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optim.manifold, "lyapunov_solve", counting("solve", optim.manifold.lyapunov_solve))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting("eig", getattr(np.linalg, name)))
    data, model0 = case
    totals = []
    for iters in (20, 40):
        calls.update(solve=0, eig=0)
        cfg = optim.OptimizerConfig(method="dadam", alpha=0.03, max_iters=iters, em_tol=0.0, seed=5)
        assert optim.fit(model0, data, cfg).iterations == iters
        totals.append(dict(calls))
    # the difference leaves out the one-off validation of the start
    assert (totals[1]["solve"] - totals[0]["solve"]) / 20 <= 2
    assert (totals[1]["eig"] - totals[0]["eig"]) / 20 <= 3


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
