"""Fitting benchmark: seeded workloads, closed-loop fits, output checks, metrics.

A run sets up one workload from ``--seed`` (synthetic Gaussian mixtures,
k-means++-lite starts and the warm primitive table), then fits its plan of
(dataset, start) cases back to back until ``--seconds`` have passed, one
fit at a time.  Every case is fitted at least twice, so each run checks
that a repeated seeded fit returns a bitwise-identical model.  With
tracing on, odd passes over the plan run with the engine's public
functions wrapped in spans (see ``tracer.py``); even passes stay untraced,
and the ratio of the two gives the tracing overhead.  End-to-end times are
scaled by a reference kernel timed between fits (``ReferenceKernel``).

See README.md for why each workload exists and which metric each layer
should move.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.interpolate import PchipInterpolator

from emmfit import families, gradients, manifold, mixture, optim, transport
from emmfit.errors import EmmfitError, StepTooLargeError

from tracer import Instrumentation, Tracer

HELDOUT_DIRECTIONS = 16
HELDOUT_SEED = 1906_03700
REFERENCE_S = 0.03  # end-to-end times are scaled to this ReferenceKernel duration
SNAPSHOT_EVERY = 25
TARGET_SHARE = 0.5  # iters_to_target: first snapshot with d_u <= this share of the start's
EM_CONVERGED = 1e-4  # em_iters: first EM iteration whose NLL moved by less than this


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    m: int
    k: int
    n: int
    separation: float
    datasets: int
    starts: int  # initialisations per dataset
    max_iters: int
    alpha: float = 0.03
    eccentricity: float = 4.0


WORKLOADS = {
    # O(n) transport work per step: sort of n projections, quantile prefixes.
    "tall": Workload("tall", "dadam", m=2, k=3, n=100_000, separation=3.0,
                     datasets=3, starts=1, max_iters=300),
    # k*G kernel lookups plus k*m^3 manifold algebra per step; carries the
    # m >= 8 scatter collapse.
    "wide": Workload("wide", "dadam", m=16, k=8, n=4_000, separation=3.0,
                     datasets=5, starts=1, max_iters=300),
    # EM baseline: per-sample densities and M-steps, no projection,
    # kernel or manifold work.  A fixed iteration budget: stopping at a
    # tolerance made the time per seed swing by half (see README.md).
    "em": Workload("em", "em", m=8, k=4, n=50_000, separation=1.0,
                   datasets=1, starts=8, max_iters=25),
}

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "iter_ms.p50": "ms", "peak_rss_mb": "MB"}

# Spans whose self time is reported as <name>.ms_per_iter.
LAYER_SPANS = (
    "transport.make_projection_context",
    "transport.project_model",
    "transport.projected_w2",
    "transport.quantile_prefixes",
    "families.gen_primitive",
    "families.gen_primitive_slope",
    "gradients.euclidean_grad",
    "manifold.lyapunov_solve",
    "manifold.exp_sigma",
    "manifold.transport_sigma",
    "manifold.riem_grad_sigma",
    "manifold.exp_sphere",
    "mixture.MixtureModel",
    "families.check_spd",
)
ROOT_SPAN = "optim.fit"

PER_LAYER_UNITS = {
    **{f"{name}.ms_per_iter": "ms" for name in LAYER_SPANS},
    "optim.self.ms_per_iter": "ms",
    "transport.quantile_prefixes.calls_per_iter": "calls/iter",
    "manifold.lyapunov_solve.calls_per_iter": "calls/iter",
    "families.check_spd.calls_per_iter": "calls/iter",
    "linalg.eig.calls_per_iter": "calls/iter",
    "families.gen_primitive.points_per_iter": "points/iter",
    "families.gen_primitive.ns_per_point": "ns",
    "manifold.exp_sigma.reject_ratio": "ratio",
    "optim.em_iters": "iters",
    "optim.min_eig_ratio.final": "ratio",
    "optim.weight_min.final": "weight",
    "optim.iters_to_target": "iters",
    "optim.iter_ms.p99": "ms",
    "trace.iter_ms": "ms",
    "trace.overhead": "ratio",
    "setup_s.wall": "s",
    "fit_s.wall": "s",
    "iter_ms.p50.wall": "ms",
    "reference_ms": "ms",
    "du_final": "d_u",
    "nll_gap": "nats",
    "sliced_gap": "sq_units",
    "failed_frac": "fraction",
}


@dataclass
class Case:
    dataset: int
    start: int
    data: mixture.Dataset
    model0: mixture.MixtureModel
    cfg: optim.OptimizerConfig


def case_seed(seed: int, dataset: int, start: int) -> int:
    return int(np.random.SeedSequence([seed, dataset, start]).generate_state(1)[0])


def set_up(w: Workload, seed: int) -> list[Case]:
    """Datasets, starting models and a warm primitive table, from the seed alone."""
    family = families.gaussian(w.m)
    family.gen_primitive(np.zeros(1))  # builds the lazy 65 536-node table
    cases = []
    for d in range(w.datasets):
        data = mixture.generate_synthetic(
            w.m, w.k, w.n, w.eccentricity, w.separation, np.random.default_rng([seed, d]), seed=seed
        )
        for r in range(w.starts):
            model0 = optim.initialize(data, w.k, family, "kmeanspp-lite", np.random.default_rng([seed, d, r]))
            cfg = optim.OptimizerConfig(
                method=w.method, alpha=w.alpha, max_iters=w.max_iters, em_tol=0.0,
                seed=case_seed(seed, d, r),
            )
            cases.append(Case(d, r, data, model0, cfg))
    return cases


class Snapshots:
    """Iterates seen by ``transport.project_model``, one every ``every`` calls."""

    def __init__(self, every: int = SNAPSHOT_EVERY):
        self.every = every
        self.calls = 0
        self.taken: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def __call__(self, model, ctx):
        if self.calls % self.every == 0:
            self.taken.append((self.calls, model.weights.copy(), model.mus.copy(), model.sigmas.copy()))
        self.calls += 1


def instrument(tracer: Tracer, snapshots: Snapshots | None) -> Instrumentation:
    """Wrap the engine's public functions in spans.

    Names imported into another module (``euclidean_grad`` into optim,
    ``check_spd`` into manifold) are wrapped there too, and the
    ``MixtureModel`` constructor is wrapped where the optimiser calls it.
    """
    inst = Instrumentation()

    def span(name, **kw):
        return lambda fn: tracer.wrap(name, fn, **kw)

    inst.patch(transport, "make_projection_context", span("transport.make_projection_context"))
    inst.patch(transport, "project_model", span("transport.project_model", before=snapshots))
    inst.patch(transport, "projected_w2", span("transport.projected_w2"))
    inst.patch(transport.ProjectionContext, "quantile_prefixes", span("transport.quantile_prefixes"))
    inst.patch(families.EllipticalFamily, "gen_primitive", span("families.gen_primitive", count_points=True))
    inst.patch(families.EllipticalFamily, "gen_primitive_slope", span("families.gen_primitive_slope"))
    for owner in (gradients, optim):
        inst.patch(owner, "euclidean_grad", span("gradients.euclidean_grad"))
    for name in ("lyapunov_solve", "transport_sigma", "riem_grad_sigma", "exp_sphere"):
        inst.patch(manifold, name, span("manifold." + name))
    inst.patch(manifold, "exp_sigma", span("manifold.exp_sigma", raises=StepTooLargeError))
    for owner in (families, manifold):
        inst.patch(owner, "check_spd", span("families.check_spd"))
    inst.patch(optim, "MixtureModel", span("mixture.MixtureModel"))
    for name in ("eigh", "eigvalsh"):
        inst.patch(np.linalg, name, lambda fn, name=name: tracer.count("linalg." + name, fn))
    return inst


def model_bytes(model: mixture.MixtureModel) -> bytes:
    return model.weights.tobytes() + model.mus.tobytes() + model.sigmas.tobytes()


def is_valid_model(model, w: Workload) -> bool:
    """The final model passes MixtureModel's own validation and is finite."""
    try:
        again = mixture.MixtureModel(model.family, model.weights, model.mus, model.sigmas)
    except EmmfitError:
        return False
    arrays = (again.weights, again.mus, again.sigmas)
    return again.k == w.k and again.m == w.m and all(np.all(np.isfinite(a)) for a in arrays)


def failed_fraction(reports) -> float:
    """Share of fit reports with ``failed`` set."""
    reports = list(reports)
    return sum(bool(r.failed) for r in reports) / len(reports)


def em_converged_at(nlls: np.ndarray, max_iters: int) -> int:
    """First EM iteration whose NLL changed by less than EM_CONVERGED (max_iters if none)."""
    hits = np.flatnonzero(np.abs(np.diff(nlls)) < EM_CONVERGED)
    return int(hits[0]) + 2 if hits.size else max_iters


def iters_to_target(snapshots: Snapshots, truth, family, du_start: float, max_iters: int) -> int:
    """First snapshot iteration with d_u to the truth at most TARGET_SHARE of the start's.

    Fits that never reach it count as ``max_iters``.
    """
    for it, weights, mus, sigmas in snapshots.taken:
        model = mixture.MixtureModel(family, weights, mus, sigmas)
        if transport.d_u(model, truth)[0] <= TARGET_SHARE * du_start:
            return it
    return max_iters


class Quality:
    """Fit-quality figures of the first fit of each case (deterministic per seed)."""

    def __init__(self, w: Workload):
        self.w = w
        self.directions = transport.random_projections(w.m, HELDOUT_DIRECTIONS, np.random.default_rng(HELDOUT_SEED))
        self._truth_cache: dict[int, tuple[float, float]] = {}
        self.rows: list[dict] = []
        self.reports = []

    def _truth_costs(self, case: Case) -> tuple[float, float]:
        if case.dataset not in self._truth_cache:
            truth = case.data.truth
            self._truth_cache[case.dataset] = (
                mixture.nll(truth, case.data),
                transport.sliced_cost(truth, case.data, self.directions),
            )
        return self._truth_cache[case.dataset]

    def add(self, case: Case, report) -> None:
        truth, final = case.data.truth, report.final_model
        nll_truth, sliced_truth = self._truth_costs(case)
        self.reports.append(report)
        self.rows.append({
            "dataset": case.dataset,
            "start": case.start,
            "du_start": transport.d_u(case.model0, truth)[0],
            "du_final": transport.d_u(final, truth)[0],
            "nll_gap": mixture.nll(final, case.data) - nll_truth,
            "sliced_gap": transport.sliced_cost(final, case.data, self.directions) - sliced_truth,
            "min_eig_ratio": float(report.min_eig_ratio[-1]),
            "weight_min": float(final.weights.min()),
            "em_iters": em_converged_at(report.costs, self.w.max_iters) if self.w.method == "em" else 0,
        })

    def median(self, key: str) -> float:
        return float(np.median([row[key] for row in self.rows]))

    def mean(self, key: str) -> float:
        return float(np.mean([row[key] for row in self.rows]))


class ReferenceKernel:
    """Fixed numpy/scipy work that shares no code with the engine.

    The shared host runs identical work up to 1.6x slower for minutes at a
    time.  Timing this kernel between fits measures how fast the host is
    running, and dividing by it takes most of that swing out of the
    end-to-end times.  The mix mirrors the engine's hot spots: a sort of
    1e5 floats, PCHIP evaluation on a 65 536-node table, small symmetric
    eigendecompositions and a tall triangular-style solve.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(100_000)
        nodes = np.linspace(0.0, 10.0, 65_536)
        self.table = PchipInterpolator(nodes, np.tanh(nodes))
        self.queries = rng.uniform(0.0, 10.0, 8_200)
        a = rng.standard_normal((16, 16))
        self.spd = a @ a.T + 16.0 * np.eye(16)
        self.cloud = rng.standard_normal((8, 50_000))

    def seconds(self) -> float:
        tic = time.perf_counter()
        np.sort(self.values)
        for _ in range(10):
            self.table(self.queries)
        for _ in range(100):
            lam, q = np.linalg.eigh(self.spd)
            (q * lam) @ q.T
        np.linalg.solve(self.spd[:8, :8], self.cloud)
        return time.perf_counter() - tic


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def time_metrics(fits, setup_times, reference_times, n_cases: int) -> dict:
    """End-to-end times, raw (``*.wall``) and scaled to the reference speed.

    ``fits`` holds (case, traced, seconds, median iteration ms) in run
    order; fit j ran between reference times j and j+1, and set-up k just
    after reference time k.  ``fit_s`` is one pass over the cases, each at
    the median of its untraced repeats; ``iter_ms.p50`` is the median over
    untraced fits of each fit's median iteration time.
    """
    refs = np.asarray(reference_times)
    fit_scale = REFERENCE_S / (0.5 * (refs[:-1] + refs[1:]))

    def pass_s(traced: bool, scaled: bool) -> float:
        per_case = [[] for _ in range(n_cases)]
        for (c, was_traced, elapsed, _), k in zip(fits, fit_scale):
            if was_traced == traced:
                per_case[c].append(elapsed * (k if scaled else 1.0))
        return sum(float(np.median(times)) for times in per_case)

    def iter_p50(scaled: bool) -> float:
        return float(np.median([p50 * (k if scaled else 1.0)
                                for (_, traced, _, p50), k in zip(fits, fit_scale) if not traced]))

    out = {
        "setup_s": float(np.median(np.asarray(setup_times) * (REFERENCE_S / refs))),
        "fit_s": pass_s(False, scaled=True),
        "iter_ms.p50": iter_p50(scaled=True),
        "setup_s.wall": float(np.median(setup_times)),
        "fit_s.wall": pass_s(False, scaled=False),
        "iter_ms.p50.wall": iter_p50(scaled=False),
        "reference_ms": 1e3 * float(np.median(refs)),
    }
    if any(f[1] for f in fits):
        out["trace.overhead"] = pass_s(True, scaled=True) / out["fit_s"] - 1.0
    return out


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record (metrics, checks, trace)."""
    # The reference is timed before the first set-up and after every fit's
    # set-up: set-up k sits just after reference k, fit j between j and j+1.
    reference = ReferenceKernel()
    reference_times = [reference.seconds()]
    tic = time.perf_counter()
    cases = set_up(w, seed)
    setup_times = [time.perf_counter() - tic]

    n_cases = len(cases)
    # two passes at least: untraced then, with tracing, traced passes alternating
    min_fits = 2 * n_cases
    quality = Quality(w)
    tracer = Tracer()
    first_bytes: dict[int, bytes] = {}
    fits: list[tuple[int, bool, float, float]] = []  # case, traced, seconds, median iteration ms
    untraced_wall: list[np.ndarray] = []
    snapshots: dict[int, Snapshots] = {}
    traced_iters = 0
    attempted = failed = 0
    problems: list[str] = []

    deadline = time.perf_counter() + seconds
    j = 0
    raised = False
    while j < min_fits or time.perf_counter() < deadline:
        c, p = j % n_cases, j // n_cases
        traced = trace and p % 2 == 1
        case = cases[c]
        j += 1
        attempted += 1
        try:
            if traced:
                snap = None  # iterates are kept from the first traced fit of each case only
                if c not in snapshots:
                    snap = snapshots[c] = Snapshots()
                with instrument(tracer, snap):
                    fit = tracer.wrap(ROOT_SPAN, optim.fit)
                    tic = time.perf_counter()
                    report = fit(case.model0, case.data, case.cfg)
                    elapsed = time.perf_counter() - tic
            else:
                tic = time.perf_counter()
                report = optim.fit(case.model0, case.data, case.cfg)
                elapsed = time.perf_counter() - tic
        except EmmfitError as exc:
            failed += 1
            problems.append(f"case {c}: fit raised {type(exc).__name__}: {exc}")
            raised = True
            break
        failed += int(report.failed)
        fits.append((c, traced, elapsed, float(np.median(report.wall_ms))))
        if traced:
            traced_iters += report.iterations
        else:
            untraced_wall.append(report.wall_ms)

        key = model_bytes(report.final_model)
        if c not in first_bytes:
            first_bytes[c] = key
            if not is_valid_model(report.final_model, w):
                problems.append(f"case {c}: final model is not a valid MixtureModel")
            quality.add(case, report)
        elif key != first_bytes[c]:
            problems.append(f"case {c}: repeated seeded fit (pass {p}) gave a different final model")

        tic = time.perf_counter()
        set_up(w, seed)
        setup_times.append(time.perf_counter() - tic)
        reference_times.append(reference.seconds())

    record = {
        "workload": w.name,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "meta": run_meta(w, seed, seconds, trace),
        "metrics": {},
    }
    if raised:
        return record

    all_wall = np.concatenate(untraced_wall)
    metrics = {
        **time_metrics(fits, setup_times, reference_times, n_cases),
        "peak_rss_mb": peak_rss_mb(),
        "du_final": quality.median("du_final"),
        "nll_gap": quality.median("nll_gap"),
        "sliced_gap": quality.median("sliced_gap"),
        "failed_frac": failed_fraction(quality.reports),
        "optim.min_eig_ratio.final": quality.median("min_eig_ratio"),
        "optim.weight_min.final": quality.median("weight_min"),
        "optim.em_iters": quality.mean("em_iters"),
        "optim.iter_ms.p99": float(np.percentile(all_wall, 99)),
    }
    record["samples"] = {"fits": attempted, "iterations_untraced": int(all_wall.size)}
    if trace:
        metrics.update(layer_metrics(tracer, traced_iters))
        metrics["trace.iter_ms"] = 1e3 * sum(f[2] for f in fits if f[1]) / traced_iters
        metrics["optim.iters_to_target"] = (
            float(np.median([
                iters_to_target(snapshots[c], cases[c].data.truth, cases[c].model0.family,
                                quality.rows[c]["du_start"], w.max_iters)
                for c in range(n_cases)
            ]))
            if w.method != "em" else 0.0
        )
        record["samples"]["iterations_traced"] = traced_iters
        record["trace"] = tracer.to_dict()
    record["metrics"] = metrics
    record["cases"] = quality.rows
    return record


def layer_metrics(tracer: Tracer, iters: int) -> dict:
    """Per-iteration self times and counts from the traced fits."""
    own = tracer.self_ns()
    calls = tracer.counters
    per_iter = {f"{name}.ms_per_iter": own.get(name, 0) / 1e6 / iters for name in LAYER_SPANS}
    per_iter["optim.self.ms_per_iter"] = own.get(ROOT_SPAN, 0) / 1e6 / iters
    for name in ("transport.quantile_prefixes", "manifold.lyapunov_solve", "families.check_spd"):
        per_iter[f"{name}.calls_per_iter"] = calls[name + ".calls"] / iters
    per_iter["linalg.eig.calls_per_iter"] = (calls["linalg.eigh.calls"] + calls["linalg.eigvalsh.calls"]) / iters
    points = calls["families.gen_primitive.points"]
    per_iter["families.gen_primitive.points_per_iter"] = points / iters
    per_iter["families.gen_primitive.ns_per_point"] = own.get("families.gen_primitive", 0) / points if points else 0.0
    exp_calls = calls["manifold.exp_sigma.calls"]
    per_iter["manifold.exp_sigma.reject_ratio"] = (
        calls["manifold.exp_sigma.raised"] / exp_calls if exp_calls else 0.0
    )
    return per_iter


def run_meta(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(w),
        "heldout_directions": HELDOUT_DIRECTIONS,
        "nproc": os.cpu_count(),
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def write_trace(record: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{record['workload']}-seed{record['seed']}.json"
    path.write_text(json.dumps(record, separators=(",", ":")))
    return path
