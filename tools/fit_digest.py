"""SHA-256 digests of a benchmark workload's set-up, of every fit it runs and
of each case's d_u to the truth.

    python3 tools/fit_digest.py --workload all --seed 1 2 3

Run from the root of a checkout.  For each workload, ``bench/harness.py``'s
``set_up`` builds the datasets and starting models from the seed, and each
case is fitted once with its own config.  The workloads run dadam and EM
only, so the first case of each dadam workload is also fitted by vanilla
and by radam, its config otherwise unchanged.  One line is printed per
digest:

    <workload> setup                 <digest of every case's samples and start>
    <workload> case <c> model        <digest of the final weights, locations, scatters>
    <workload> case <c> costs        <digest of the cost trace>
    <workload> case <c> record       <digest of the min_eig_ratio trace, the events and the failure reason>
    <workload> case <c> d_u          <digest of the float d_u(final model, truth)[0]>
    <workload> case 0 <method> ...   <the same three of case 0 fitted by vanilla, radam>

Each d_u is read as ``transport.d_u(...)[0]``, as the harness reads it,
so checkouts whose ``d_u`` returns other things beside its value print
comparable lines.  Given several seeds, the lines of each seed follow
those of the one before, in the order given, exactly as the single-seed
calls print them.  Two checkouts that print the same lines for a seed set
up and fit that seed's workloads, and take d_u of each fit, to the same
bits.  The script only reads ``bench/``; like ``bench/run.py`` it runs
numpy on one BLAS thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def digest(*parts) -> str:
    """SHA-256 over the bytes of arrays (or of bytes) in turn."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()


def fit_digests(optim, label: str, case, cfg) -> tuple[object, list[tuple[str, str]]]:
    """The final model of the fit of one case by cfg, and its (label,
    digest) pairs."""
    report = optim.fit(case.model0, case.data, cfg)
    final = report.final_model
    notes = "\n".join([*report.events, str(report.failure_reason)]).encode()
    return final, [
        (f"{label} model", digest(final.weights, final.mus, final.sigmas)),
        (f"{label} costs", digest(report.costs)),
        (f"{label} record", digest(report.min_eig_ratio, notes)),
    ]


def workload_digests(harness, optim, transport, name: str, seed: int) -> list[tuple[str, str]]:
    """(label, digest) pairs of one workload's set-up, of each case's fit and
    its d_u to the truth and, for a dadam workload, of its first case fitted
    by vanilla and radam."""
    cases = harness.set_up(harness.WORKLOADS[name], seed)
    setup = []
    for case in cases:
        start = case.model0
        setup += [case.data.samples, start.weights, start.mus, start.sigmas]
    lines = [("setup", digest(*setup))]
    for c, case in enumerate(cases):
        final, fit_lines = fit_digests(optim, f"case {c}", case, case.cfg)
        du = transport.d_u(final, case.data.truth)[0]
        lines += [*fit_lines, (f"case {c} d_u", digest(struct.pack("d", du)))]
    if cases[0].cfg.method == "dadam":
        for method in ("vanilla", "radam"):
            cfg = dataclasses.replace(cases[0].cfg, method=method)
            lines += fit_digests(optim, f"case 0 {method}", cases[0], cfg)[1]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "em", "all"))
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    # read by BLAS when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import harness
    from emmfit import optim, transport

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    for seed in args.seed:
        for name in names:
            for label, value in workload_digests(harness, optim, transport, name, seed):
                print(f"{name:<5} {label:<20} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
