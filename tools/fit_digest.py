"""SHA-256 digests of a benchmark workload's set-up and of every fit it runs.

    python3 tools/fit_digest.py --workload all --seed 1

Run from the root of a checkout.  For each workload, ``bench/harness.py``'s
``set_up`` builds the datasets and starting models from the seed, and each
case is fitted once with its own config.  One line is printed per digest:

    <workload> setup                 <digest of every case's samples and start>
    <workload> case <c> model        <digest of the final weights, locations, scatters>
    <workload> case <c> costs        <digest of the cost trace>
    <workload> case <c> record       <digest of the health traces and events>

Two checkouts that print the same lines for a seed set up and fit that
seed's workloads to the same bits.  The script only reads ``bench/``; like
``bench/run.py`` it runs numpy on one BLAS thread.
"""

from __future__ import annotations

import argparse
import hashlib
import os
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


def workload_digests(harness, optim, name: str, seed: int) -> list[tuple[str, str]]:
    """(label, digest) pairs of one workload's set-up and of each case's fit."""
    cases = harness.set_up(harness.WORKLOADS[name], seed)
    setup = []
    for case in cases:
        start = case.model0
        setup += [case.data.samples, start.weights, start.mus, start.sigmas]
    lines = [("setup", digest(*setup))]
    for c, case in enumerate(cases):
        report = optim.fit(case.model0, case.data, case.cfg)
        final = report.final_model
        lines.append((f"case {c} model", digest(final.weights, final.mus, final.sigmas)))
        lines.append((f"case {c} costs", digest(report.costs)))
        notes = "\n".join([*report.events, str(report.failure_reason)]).encode()
        lines.append((f"case {c} record", digest(report.weight_gap, report.min_eig_ratio, notes)))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "em", "all"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    # read by BLAS when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import harness
    from emmfit import optim

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for label, value in workload_digests(harness, optim, name, args.seed):
            print(f"{name:<5} {label:<20} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
