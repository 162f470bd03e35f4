"""Harness arithmetic, output checks and a tiny end-to-end run.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
from emmfit import optim, transport
from tracer import Instrumentation, Tracer, self_times

SMOKE = harness.Workload("smoke", "dadam", m=2, k=2, n=500, separation=3.0,
                         datasets=1, starts=2, max_iters=30)
SMOKE_EM = replace(SMOKE, name="smoke-em", method="em")


def test_self_time_is_duration_minus_direct_children():
    # root [0, 100] > a [10, 40] > a1 [15, 25]; root > b [50, 90]
    names = ["root", "a", "a1", "b"]
    own = self_times(names, [0, 10, 15, 50], [100, 40, 25, 90], [-1, 0, 1, 0])
    assert own == {"root": 30, "a": 20, "a1": 10, "b": 40}
    assert sum(own.values()) == 100


def test_tracer_nests_spans_and_counts_raises():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError
        return x

    leaf_w = tracer.wrap("leaf", leaf, raises=ValueError)

    def outer(x):
        leaf_w(x)
        try:
            leaf_w(-1)
        except ValueError:
            pass
        return x

    assert tracer.wrap("outer", outer)(3) == 3
    assert tracer.names == ["outer", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.counters["leaf.calls"] == 2 and tracer.counters["leaf.raised"] == 1
    assert sum(tracer.self_ns().values()) == tracer.ends[0] - tracer.starts[0]


def test_instrumentation_restores_module_and_class_attributes():
    tracer = Tracer()
    before_fn = transport.project_model
    before_method = transport.ProjectionContext.__dict__["quantile_prefixes"]
    with Instrumentation() as inst:
        inst.patch(transport, "project_model", lambda fn: tracer.wrap("p", fn))
        inst.patch(transport.ProjectionContext, "quantile_prefixes", lambda fn: tracer.wrap("q", fn))
        assert transport.project_model is not before_fn
    assert transport.project_model is before_fn
    assert transport.ProjectionContext.__dict__["quantile_prefixes"] is before_method


def test_failed_fraction_counts_flagged_reports():
    reports = [SimpleNamespace(failed=f) for f in (True, False, False, True, False)]
    assert harness.failed_fraction(reports) == pytest.approx(0.4)
    assert harness.failed_fraction([SimpleNamespace(failed=False)]) == 0.0


def test_invalid_final_model_is_flagged():
    good = harness.set_up(SMOKE, 0)[0].model0
    assert harness.is_valid_model(good, SMOKE)
    bad = SimpleNamespace(family=good.family, weights=good.weights * 2.0, mus=good.mus, sigmas=good.sigmas)
    assert not harness.is_valid_model(bad, SMOKE)


@pytest.mark.parametrize("workload", [SMOKE, SMOKE_EM], ids=["dadam", "em"])
def test_smoke_run_untraced(workload):
    record = harness.run(workload, seed=3, seconds=0.0, trace=False)
    assert record["correct"], record["problems"]
    assert record["attempted"] == 2 * workload.datasets * workload.starts  # every case repeated
    for name in harness.END_TO_END_UNITS:
        assert record["metrics"][name] > 0.0


def test_times_scale_with_the_adjacent_reference():
    ref = harness.REFERENCE_S
    # case 0 twice, case 1 once, then one traced fit of each; fit j sits
    # between references j and j+1, set-up k right after reference k
    fits = [(0, False, 2.0, 4.0), (1, False, 3.0, 6.0), (0, False, 4.0, 8.0),
            (0, True, 5.0, 9.0), (1, True, 3.0, 6.0)]
    refs = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    out = harness.time_metrics(fits, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0], refs, n_cases=2)
    assert out["fit_s.wall"] == 3.0 + 3.0  # median(2, 4) + 3
    assert out["fit_s"] == pytest.approx((2.0 + 4.0 / 1.5) / 2 + 3.0)
    assert out["iter_ms.p50.wall"] == 6.0
    assert out["iter_ms.p50"] == pytest.approx(np.median([4.0, 6.0, 8.0 / 1.5]))
    assert out["setup_s.wall"] == 1.5 and out["setup_s"] == 1.0
    assert out["reference_ms"] == pytest.approx(1e3 * 1.5 * ref)
    assert out["trace.overhead"] == pytest.approx((2.5 + 1.5) / out["fit_s"] - 1.0)


def test_smoke_run_traced_adds_up():
    record = harness.run(SMOKE, seed=3, seconds=0.0, trace=True)
    assert record["correct"], record["problems"]
    metrics = record["metrics"]
    assert set(harness.PER_LAYER_UNITS) <= set(metrics)
    self_sum = sum(metrics[f"{name}.ms_per_iter"] for name in harness.LAYER_SPANS)
    self_sum += metrics["optim.self.ms_per_iter"]
    # root spans sit inside the harness's own timer around each fit
    assert self_sum <= metrics["trace.iter_ms"]
    assert self_sum == pytest.approx(metrics["trace.iter_ms"], rel=0.05)
    assert metrics["transport.quantile_prefixes.calls_per_iter"] == 2.0
    assert metrics["families.gen_primitive.points_per_iter"] == SMOKE.k * 1025
    assert transport.project_model.__module__ == "emmfit.transport"
    assert not hasattr(transport.project_model, "__wrapped__")


def test_nondeterministic_fit_fails_the_check(monkeypatch):
    real_fit = optim.fit
    calls = []

    def drifting_fit(model0, data, cfg):
        report = real_fit(model0, data, cfg)
        calls.append(1)
        if len(calls) > 1:
            final = report.final_model
            report.final_model = optim.MixtureModel(final.family, final.weights, final.mus + 1e-12, final.sigmas)
        return report

    monkeypatch.setattr(optim, "fit", drifting_fit)
    record = harness.run(replace(SMOKE, starts=1), seed=0, seconds=0.0, trace=False)
    assert not record["correct"]
    assert "different final model" in record["problems"][0]


def test_benchmark_json_matches_harness():
    doc = json.loads((Path(harness.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER_UNITS


def test_setup_is_seeded():
    a, b = harness.set_up(SMOKE, 5), harness.set_up(SMOKE, 5)
    c = harness.set_up(SMOKE, 6)
    assert np.array_equal(a[1].data.samples, b[1].data.samples)
    assert harness.model_bytes(a[1].model0) == harness.model_bytes(b[1].model0)
    assert not np.array_equal(a[0].data.samples, c[0].data.samples)
